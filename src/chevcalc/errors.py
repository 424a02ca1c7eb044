"""Exception hierarchy for the chevcalc package.

Every failure that callers are expected to catch and react to gets its own
class; anything else is a plain bug and raises a builtin.  Each class
carries the exit code the command line gives its family (`exit_code`):
3-20 for the families, 1 for the base class, which the command line
shares with failed checks; 0 is success and 2 a usage error.
"""


class ChevCalcError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 1


class InvalidType(ChevCalcError):
    """Root system label or rank outside the supported table."""
    exit_code = 3


class OppositeRoots(ChevCalcError):
    """A commutator or constant lookup was asked for roots with beta = -gamma."""
    exit_code = 4


class UnsupportedRing(ChevCalcError):
    """The requested ring construction or capability query is not available."""
    exit_code = 5


class SubstitutionMismatch(ChevCalcError):
    """A substitution mapping does not cover the variables of the element."""
    exit_code = 6


class UndecidableIdealClass(ChevCalcError):
    """Ideal membership was asked for a (ring, ideal) class with no complete test."""
    exit_code = 7


class NotInIdeal(ChevCalcError):
    """A witness was requested for an element provably outside the ideal."""
    exit_code = 8


class NotSplittingIdeal(ChevCalcError):
    """An operation needed a splitting pair (I, J) with I + J = full ring."""
    exit_code = 9


class NotExtendedIdeal(ChevCalcError):
    """Witness reconstruction needed an ideal extended from the base ring."""
    exit_code = 10


class CongruenceFailed(ChevCalcError):
    """A matrix congruence check that was asserted to hold did not."""
    exit_code = 11


class ConditionViolated(ChevCalcError):
    """Ring/root-system hypotheses of the requested rewrite are not met."""
    exit_code = 12


class NoUnitCombination(ChevCalcError):
    """No unit of the required shape exists in the ring (e.g. r with r^2-r a unit)."""
    exit_code = 13


class BudgetExhausted(ChevCalcError):
    """A division-funded rewrite ran out of recorded multiplier budget."""
    exit_code = 14


class NodeBudgetExceeded(ChevCalcError):
    """A word grew past the configured node-count limit during rewriting."""
    exit_code = 15


class LocalizationMismatch(ChevCalcError):
    """Rings in a patching problem disagree about the localized element."""
    exit_code = 16


class NotUnimodular(ChevCalcError):
    """A claimed cover does not generate the unit ideal."""
    exit_code = 17


class ParseError(ChevCalcError):
    """Malformed serialized word or ring element."""
    exit_code = 18


class OracleMismatch(ChevCalcError):
    """Two independent computations of the same quantity disagree."""
    exit_code = 19


class InconsistentData(ChevCalcError):
    """Two local data of a patching problem disagree where their cover overlaps."""
    exit_code = 20
