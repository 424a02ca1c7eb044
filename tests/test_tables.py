"""Pinned digests of every table a root system and its models hold.

One sha256 per supported system covers its roots in index order, the sum
table, every Lie constant N(a, b) with b != -a, and every template
X_a^k / k! of its adjoint model and, on types A and C, of its defining
model.  A change to how these tables are built must leave the digests as
they are; a change to what they hold must update them on purpose.

To print the digests of a checkout, run
`PYTHONPATH=src python tests/test_tables.py` from the repository root.
"""

import hashlib

import pytest

from chevcalc.chevrep import Representation
from chevcalc.rootsys import RootSystem

TABLE_SHA256 = {
    "A1": "6facf998510483c8483c41b335f1390e1c97bc45ac47c1f807c3eda3c9ddaae1",
    "A2": "9c3918658fe766d7def73c4fab949278a19b3eab97e5e40d8b2c57b33e90855f",
    "A3": "592067d0751bdeb311f9dc3e3357762ce8065529d3e48ddeed485f1f313f2d85",
    "A4": "27275f144e15ac33faeaff6211c9c73f5e4c923e858ef4ca68a0805bc5c712d7",
    "A5": "99066c0c1557e9da6ab0b1e5916c1e9986e8b612b4a14264eccb3c09487d635f",
    "A6": "34b62d32927fe23764da5e30beeb60c3eaf2427fceb3e75da3b381c36292f2c7",
    "A7": "dc77313eb29c5764b6d969a09a1dfc940a4b465734a328cd5b1b1b5ac4c47597",
    "A8": "cdb5a49755e91836784ac0b20dd9bf5de3bb0a8b09254c52945b68c5051f80eb",
    "B2": "b386d7fe6062c375b3dc603cf2b010469fb82db5a6141700de82c28b84ab3f20",
    "B3": "5a75e1c098dacd2252d47e31e57dfd4546d02833fcedcf7adb0ac8815ae2c284",
    "B4": "e4e677dab577cf0275012449df316ae35cd5d374b188c42aa2a299f76cdc8463",
    "B5": "7a7eae1bcf817e20f2d7b4ba6e5ce7df14e5c9cdd56ad31db8e87acee490a81e",
    "B6": "570530cd3b3a36df4c228935c8dfacebcadd1def5e5b14f56d3ea43a4b8b9606",
    "B7": "4d57a9bee4bd2909fe94ae725dda7eabd155c143829d4035f9ece86c72e23d3f",
    "B8": "0f292e1e5e437be6488140f6b716e6d79b963428b3d0fcf3627348f30a3c5ffb",
    "C2": "de5fedbe12040cc34d96274712538bf1dbafa61bc8aa1055433412b37456da71",
    "C3": "e7b6b6718632c17158397076a4d8fdf2f79a5ea70b8dcee69b1842178d66a143",
    "C4": "23e09b55e0690908e33063aa267245aa24462461a197aa79bda556ac96888a38",
    "C5": "0a1284b1be90120be7445cb4df14a152546a132f060cb9c19ba703fcdb01db30",
    "C6": "fa18317fd2fd756a91e4d404d1c3ccb41942ea6a5bd32e72fad6df0f9d4d9b1e",
    "C7": "cb6c77d19c28ac2bbc8032015b9d851d2d254777121229efe12e68fc1acd4147",
    "C8": "da4408d8ef992d7faa1145f0fca3937c2b136bd7b277d22831f86e165c67b3d8",
    "D3": "e3f421530a9befdaecf5bbadfd42d1d30bba07e795c905f49c185cd7866f74e7",
    "D4": "90246f33fa30d5beec10e4bf506b605bdf379bea806a77b4f2fcda8a26833728",
    "D5": "fa640d3c1eae1b826717e6decffc459f1aa6e619c6a105631280b30df493c2b5",
    "D6": "b237715c52a6c1234c7613015d516faf80af5fcbabd1d94d4ec8328ea892fde7",
    "D7": "e372e49235a79584f726d24273ef43fca2fbba9aa1d11e20e9723ef96621aa3a",
    "D8": "5c5625df22e637ff638dec2805237a402edf2ff285c6f08e1262b77d8905e756",
    "E6": "1e2cc899aef933780c9efd8e5db68cd3dc08058bf9ae55dfa57f9e7d3fe7f8d1",
    "E7": "088d95bb5544b199d57358c21a32ae977fd90fc0247d901c36cb6dab80debe5a",
    "E8": "a2cdc96e7f731779f9e4f59c110724fa13a1597c60bf1c73981328c9679a287a",
    "F4": "06964f6ba1cdde499f9bb5239cef94f2ad06d7395a40bcc6bc37d535e09711c4",
    "G2": "744bf80d77471b078307fc69d4ef57ea204cfc1757a03bd9ee35b93d61ff8197",
}


def table_dump(rs):
    """The canonical text of a system's tables: one line per entry, in
    index order, with every dict read sorted."""
    lines = ["roots %r" % (rs.roots,)]
    for i, row in enumerate(rs.sums):
        lines.append("sums %d %r" % (i, sorted(row.items())))
    for i, a in enumerate(rs.roots):
        lines.append("N %d %r" % (i, [
            rs.lie_constant(a, b) for b in rs.roots if b != rs.neg(a)]))
    models = [Representation.adjoint(rs)]
    if rs.label in "AC":
        models.append(Representation.defining(rs))
    for rep in models:
        lines.append("%s dim %d" % (rep.kind, rep.dim))
        for i, a in enumerate(rs.roots):
            for k, t_k in sorted(rep.powers[a].items()):
                lines.append("%s %d %d %r" % (rep.kind, i, k, sorted(t_k.items())))
    return "\n".join(lines) + "\n"


def table_digest(label, rank):
    return hashlib.sha256(table_dump(RootSystem(label, rank)).encode()).hexdigest()


@pytest.mark.parametrize("system", sorted(TABLE_SHA256))
def test_tables_match_their_pinned_digest(system):
    assert table_digest(system[0], int(system[1:])) == TABLE_SHA256[system]


if __name__ == "__main__":
    from test_rootsys import SUPPORTED

    for label, rank in SUPPORTED:
        print('    "%s%d": "%s",' % (label, rank, table_digest(label, rank)))
