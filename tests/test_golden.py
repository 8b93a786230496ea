"""Golden digests of CLI reports.

Every shipped instance goes through each report-producing command, and the
seed-one fuzz corpus is run once; each (exit code, sha256 of stdout) must
match the digest recorded here.  The digests were taken before the sparse
exact kernel replaced the dense loops (those of plain `separability` and
`components` before A and A*G came to share one table product, those of
`rotated_swap_gf5.json` while GF(p) scalars were still `ModP` objects, those
of `rotated_swap_q.json`, whose "1/2" entries pin the non-integral half of Q,
while every Q scalar was still a `Fraction`, those of `conj_swap_m2_q.json`,
the one non-commutative algebra, while the certificate was still checked in
the tensor square, those of the two-component files `two_components_q.json`
and `two_components_gf2.json` while each component was still solved in its
own restricted subalgebra), so a representation change
that alters any report byte fails this test.  `instance.path` is dropped
before hashing, so the digest does not depend on where the checkout lives.

The outputs, their keys and the in-process run come from
`tools/parity.py`, which compares the same outputs between two checkouts,
so the two cover one list.

To print the current digests in the same layout (only for a deliberate
change of report format, never to make a failing test pass):

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from skewalg.cli import main

ROOT = Path(__file__).resolve().parent.parent
INSTANCE_DIR = ROOT / "instances"

_spec = importlib.util.spec_from_file_location("parity_tool", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)

GOLDEN = {
    "validate conj_swap_m2_q.json": (0, "b39612abad73b67bfb0a45b4b055431ba33aafa686802a5d0a593361eeeb87a6"),
    "traces conj_swap_m2_q.json": (0, "0af8e565adab0d554aa5e7ffb343a6f3ea93a0509a0638136c19383a4bfc96fc"),
    "separability conj_swap_m2_q.json --oracle": (0, "6feec8c231d7f966e808826798faab9986af6ced3c1c720f7d523d109e933f38"),
    "separability conj_swap_m2_q.json --global": (0, "ce8cdee59e3a31a6b5f8967c2a3b3974f45ebde9b660188e297478cad483b838"),
    "separability conj_swap_m2_q.json --isotropy": (0, "ec9859b5fbc3980d403f3597c89bb46bc83e4c3b591145b4bb6090253f3aefc1"),
    "skew-table conj_swap_m2_q.json": (0, "f2a1040aefe29d5b55739da561dd439c70b98439aa4757af1f7e0b180a1bb257"),
    "separability conj_swap_m2_q.json": (0, "0bd1e69694ff1f4bdab6f8316d73e5874e0764eb1486ecd928e8474c1aa5e328"),
    "components conj_swap_m2_q.json": (0, "cd5d9f9a0c0fe498ceccdb03245d719c8d5dfb93e1805d35e65ad0312137e785"),
    "validate pair_swap_global_q.json": (0, "5d29b7b79b783323c2fb8277de3c7245cf99a5dee0352dc5953f8f37c983c42a"),
    "traces pair_swap_global_q.json": (0, "b19e5a7cd0b0f4e731915ba8600238b798e0c9d30612ab3584496176e85df90c"),
    "separability pair_swap_global_q.json --oracle": (0, "9694ab24066743e745cd4e8d0ed5cf95493399e097e3098f10df59fc3e1feecf"),
    "separability pair_swap_global_q.json --global": (0, "bfcd2acf41ee759b6f41fe67fb0cc6072b6a4e50ae49df08f5b5f7762c4d276c"),
    "separability pair_swap_global_q.json --isotropy": (0, "46307fa653e6399dffd8ce8a93f1c0fbae354dc1d34fb78cfec5718251d12429"),
    "skew-table pair_swap_global_q.json": (0, "216fc69ba771d1c9f57c2f9ddbd931574d696494a1ca1272652014de9c8cd9b5"),
    "separability pair_swap_global_q.json": (0, "7c4088d54fb45638cfb91d8ac2e792f3f26e3c12bb67bc7ada4778e6cde3761e"),
    "components pair_swap_global_q.json": (0, "c518222212f5dca4c31aef8ad5b283877751adb4185820aee9fe44f22cd4dfa4"),
    "validate partial_bridge_q.json": (0, "971ec4091bd27f35350b7bae1d8282a49c6bebf976dd4eafc0c7fce57ad0d4f7"),
    "traces partial_bridge_q.json": (0, "7b20753979741398280d65e08a581735b61ef4ca615cc2f8bf10a77211688c48"),
    "separability partial_bridge_q.json --oracle": (0, "ec13a7c551aa48212babbacdb29e5b80410db0aedbbacc4eec3be6f80ae0aabb"),
    "separability partial_bridge_q.json --global": (1, "78fb2c15f22af4fc1b2df6d5ed05c4e6411ec5d681f4e9f48857a918731df928"),
    "separability partial_bridge_q.json --isotropy": (1, "eb92e2db7957d5125fa5e7f81420aaadf1ba0d9ff017e32f54ba5705490b659e"),
    "skew-table partial_bridge_q.json": (0, "f98539bf80331bba5bc1d46416e8dbc3ba93edb6e39d525f9b75256470cbe7f9"),
    "separability partial_bridge_q.json": (0, "28aa4f8104a8749456300b7b40562c54ca2969087f4fccccf429b6625699a158"),
    "components partial_bridge_q.json": (0, "9ff5fc0e7ba8cc2c60d9100904327635bbbf053ec93830c7c965f874eb8d54e7"),
    "validate rotated_swap_gf5.json": (0, "f0f28ca39019e17891f1816bbd1b2615b2be84529db925f91810b17c06a8837b"),
    "traces rotated_swap_gf5.json": (0, "5d2e2f7774501857b394c9e2d92ff671ae64ab1b1e32448e677b9176eb733518"),
    "separability rotated_swap_gf5.json --oracle": (0, "0a001eb5cf2a2d87afabc7e97bf6e93acf2470fa9f18e3eca966391bd6df0844"),
    "separability rotated_swap_gf5.json --global": (0, "3cff9ffa79ef95d93c5d519fb5034a326449b731fd754c9ba550720d76c09d83"),
    "separability rotated_swap_gf5.json --isotropy": (0, "254f7f4e495231dffe0e02c5c28b2e5b69c2457fb084374fca1938fe3797e852"),
    "skew-table rotated_swap_gf5.json": (0, "ec265c070b727d978ceea0beb6203cdd0d22c58c986030425d0ccc877fb222a1"),
    "separability rotated_swap_gf5.json": (0, "93322c6afef2608fe7259e5cd998d18d371202560835c6d8a32a45f535f94936"),
    "components rotated_swap_gf5.json": (0, "227b96424eeeff8d2611974d5db79b7e8fc2d970950e6cb3026793803b46afd4"),
    "validate rotated_swap_q.json": (0, "f150dfb0f047fdb0d32893e9b7a60f1dae26f5a24c2095a5ee92748dd943cb8f"),
    "traces rotated_swap_q.json": (0, "608d1f0514887c54bd9e8859f2f0474cfa0e2fe03aae93da95fad3b4d2685893"),
    "separability rotated_swap_q.json --oracle": (0, "acc75b8598440d34843820463931b7ab3d84f12d075ba46476894d0de6e810a0"),
    "separability rotated_swap_q.json --global": (0, "5950e5161d65c19e67a8b722a5aa432e3ab504ef29d6a674ab572034c4c8c707"),
    "separability rotated_swap_q.json --isotropy": (0, "9c7f73f3aa1a6ae6d045fb200d3915da9f2bbaed883bf5288feb657fd3578f6f"),
    "skew-table rotated_swap_q.json": (0, "a62838c7432b24ea3954aac3755b5220024dc6228dd1be53c3b073625602d30b"),
    "separability rotated_swap_q.json": (0, "90927cf0b0c145ab48c27204e864d77e532dba9bb269c681c5974044d6772fbd"),
    "components rotated_swap_q.json": (0, "1bcaeaa4fa0437db6806f2c1fd3df3c208f302d1ad6bf0ea2a9c4d8e23d72bcb"),
    "validate two_components_gf2.json": (0, "d3abc4a0916f7d9463c64d1455e38a92d4ba32dfb89f2e5e9ed66388dcb800c9"),
    "traces two_components_gf2.json": (0, "4613121ba95c15a8733eb81d4710c4ad94766c80aa9acf3769dd4268368e2ac0"),
    "separability two_components_gf2.json --oracle": (0, "5ce341695c49c8bd535447d1015579d1783ac979aa8fdf270e42baafba4c6859"),
    "separability two_components_gf2.json --global": (1, "78fb2c15f22af4fc1b2df6d5ed05c4e6411ec5d681f4e9f48857a918731df928"),
    "separability two_components_gf2.json --isotropy": (1, "eb92e2db7957d5125fa5e7f81420aaadf1ba0d9ff017e32f54ba5705490b659e"),
    "skew-table two_components_gf2.json": (0, "a7c177c3752e98599f1a5a1f838ce8dfa584a0f093359987281f4776ed1e5d88"),
    "separability two_components_gf2.json": (0, "1ae1ad70ad0183389b304ff63c2e5540e3aea35d738a8e4c6cca42bfe2724159"),
    "components two_components_gf2.json": (0, "bd621baa63290b100add2482c7c4e2bf0864c5deec894b60c31ccdab12bb9bd9"),
    "validate two_components_q.json": (0, "dbfd45e507c169dccfc3751bd68e175094c5174f98f4c02dbdaec7876a0327ee"),
    "traces two_components_q.json": (0, "ca5266c0a68e1faa776274dfc972549baf012a326a8dddd25963668ab25f6f7b"),
    "separability two_components_q.json --oracle": (0, "114c79177b448bdd7bd2d6eae9b97f33db3bd347fae2841da7743fd166892ad8"),
    "separability two_components_q.json --global": (0, "bcf908b09142c7d48bdb2b80d3a870fcdcd309d2525b108e56f3d26dc59a1b0b"),
    "separability two_components_q.json --isotropy": (0, "d3058ceba6dd1404e21183dfd9dc71575a7781a311dae24410a1c112cdbb54f1"),
    "skew-table two_components_q.json": (0, "ac6282a164e1a28ab4bc97652ebb236a34e1a4b80541b4c8516fab614a4e43b0"),
    "separability two_components_q.json": (0, "bb5ed7b065066a8fc5c00545534b6dd79638c0e6d3d630260de26e67f646b3f0"),
    "components two_components_q.json": (0, "0f757fe73f8c43025b41a4d9a273e62a80c961ede1d982a582faa326972a1009"),
    "validate z2_flip_gf2.json": (0, "2f8b38406e64384418bbf1cd87f75d7012679acee1f2aaaa10d386e52bb19379"),
    "traces z2_flip_gf2.json": (0, "9b3fef7c269c62623d988936593fedb5ec2e5ed1399549c33263b6e34659d2b7"),
    "separability z2_flip_gf2.json --oracle": (0, "4e9e4f98afc20093709b90c01dd9423d0deffe1e93c17e7577ef8df3983c49d5"),
    "separability z2_flip_gf2.json --global": (1, "78fb2c15f22af4fc1b2df6d5ed05c4e6411ec5d681f4e9f48857a918731df928"),
    "separability z2_flip_gf2.json --isotropy": (0, "23957cd23d37dd90e1018cab527454aac86694ec288f42c31fee5c8820991ca0"),
    "skew-table z2_flip_gf2.json": (0, "3d349d9137b1348e84ec53e4aa0b9a0c7f27b1da19247bb6da42458e57802b00"),
    "separability z2_flip_gf2.json": (0, "cf2c5b86c38c79687b78a3c6719b8a12362358e745a6e4875b2e9fdf5f844f53"),
    "components z2_flip_gf2.json": (0, "5271cfd14860bb470e921549d2533e5913813b7b4de318de7ab568dec3447118"),
    "validate z2_flip_gf3.json": (0, "ede9ec2160c59893a7f33043f7665828ba58e7c9c7d2845082af35e925ffb5db"),
    "traces z2_flip_gf3.json": (0, "64c47c1e54767122f6c09915e936714d39d621254e7cad7e6034967d9ad4b100"),
    "separability z2_flip_gf3.json --oracle": (0, "4a1f1026fffae1736cb2ca431cf83973c179794f1ca6b2dfaa4997965184da64"),
    "separability z2_flip_gf3.json --global": (1, "78fb2c15f22af4fc1b2df6d5ed05c4e6411ec5d681f4e9f48857a918731df928"),
    "separability z2_flip_gf3.json --isotropy": (1, "eb92e2db7957d5125fa5e7f81420aaadf1ba0d9ff017e32f54ba5705490b659e"),
    "skew-table z2_flip_gf3.json": (0, "5bc17a19b8f2b721bf3d3a240a865cc7aa11566c4eab1584be7b82ccd19f84a4"),
    "separability z2_flip_gf3.json": (0, "2dfd5861abebd065a0cb5a391ecf86f3c6ad172b5a308dc4c13d78aa470a6350"),
    "components z2_flip_gf3.json": (0, "61cd814419c768daec3029bcf367a0888c567e8b9d2ef8332956912b19ddd9ad"),
    "validate z2_flip_q.json": (0, "c357a9af180ae45b0caa8229f02bc5fdd0aa3b9ce9c2e7f14e306091bf166fd2"),
    "traces z2_flip_q.json": (0, "edf31044ba6c49c0893b8154bae85a5f6f50edc9e8138056e90b68498854cfbd"),
    "separability z2_flip_q.json --oracle": (0, "5495590f663c58e69decf59b8ba1bd92be113213545346c5dc9bf22d36763662"),
    "separability z2_flip_q.json --global": (1, "78fb2c15f22af4fc1b2df6d5ed05c4e6411ec5d681f4e9f48857a918731df928"),
    "separability z2_flip_q.json --isotropy": (1, "eb92e2db7957d5125fa5e7f81420aaadf1ba0d9ff017e32f54ba5705490b659e"),
    "skew-table z2_flip_q.json": (0, "fde629829c3e5c1db6fb0222c6e57db3af5112739659724d0d341f9aedd08b66"),
    "separability z2_flip_q.json": (0, "0207168b7ca1ea11909f2afe7858a1da2560ad4acddab7146ba4873139d9967a"),
    "components z2_flip_q.json": (0, "d07e0cfe945ffcb337d2457339e699d602f474be7f411c3abdac3e3bdfe25ecb"),
    "fuzz --seed 1 --count 25": (0, "98d8e192a469eadb94913a2e3a3047049d36a5580b10b03a314d7b7b43e3be4c"),
}


def _digest(code, stdout) -> tuple:
    report = json.loads(stdout)
    report.get("instance", {}).pop("path", None)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return code, hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", parity.jobs(INSTANCE_DIR), ids=parity.key)
def test_report_matches_golden_digest(argv):
    code, stdout = parity.run(main, argv)
    # the digest is taken on a re-rendering, so pin the printed bytes too:
    # stdout is exactly json's indented, key-sorted rendering of the report
    assert stdout == json.dumps(json.loads(stdout), indent=2, sort_keys=True) + "\n"
    assert _digest(code, stdout) == GOLDEN[parity.key(argv)]


def test_golden_covers_every_job():
    assert sorted(GOLDEN) == sorted(parity.key(a) for a in parity.jobs(INSTANCE_DIR))


if __name__ == "__main__":
    for argv in parity.jobs(INSTANCE_DIR):
        code, digest = _digest(*parity.run(main, argv))
        sys.stdout.write('    "%s": (%d, "%s"),\n' % (parity.key(argv), code, digest))
