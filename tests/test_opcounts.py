"""`tools/opcounts.py` counts computed work against cached lookups, in process."""

import hashlib
import importlib.util
import shlex
from pathlib import Path

from skewalg import algebra, cli, linalg, partial_action, separability, skew_ring

from conftest import INSTANCE_DIR

TOOL = Path(__file__).resolve().parent.parent / "tools" / "opcounts.py"
OPS = [["traces", str(INSTANCE_DIR / "z2_flip_q.json")],
       ["separability", str(INSTANCE_DIR / "conj_swap_m2_q.json"), "--oracle"]]
# (eliminations, inserts, useful, echelon, free_basis) of each op: every
# vector set the traces of z2_flip_q hand to `echelon` is already a reduced
# echelon basis, so that op eliminates nothing; `echelon` inserts no zero
# vector, and the ideal A*1 is the standard basis, with no `echelon` call;
# z2_flip_q's validation builds no image echelon: g, h, x and y have
# 1_{g^-1} == 1_g and fix their ideal (case (a)), xinv and yinv invert x, y
ELIMINATION_COUNTS = [(0, 0, 0, 3, 0), (6, 93, 43, 7, 2)]
# the size of each op's generating set of A*G: traces asks for none, and
# conj_swap_m2_q's is A's 8 basis vectors at the identity and the arrow s
GENERATORS = [0, 9]


def load_tool():
    spec = importlib.util.spec_from_file_location("opcounts", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _entry_points() -> tuple:
    return (algebra.Algebra.multiply, algebra.Algebra.ideal_basis,
            partial_action.PartialAction.alpha,
            linalg.Matrix.apply, linalg.Echelonizer.insert, algebra.table_product,
            skew_ring.table_product, linalg.echelon, algebra.echelon, separability.echelon,
            linalg.free_basis, partial_action.free_basis, skew_ring.free_basis,
            skew_ring.ring_generators, separability.ring_generators)


def test_counts_repeat_and_the_package_is_left_as_it_was(capsys):
    tool = load_tool()
    modules = tool.import_skewalg()
    before = _entry_points()
    first = [tool.count_op(modules, op) for op in OPS]
    assert _entry_points() == before
    assert [tool.count_op(modules, op) for op in OPS] == first
    assert [row["generators"] for row in first] == GENERATORS
    for op, row, eliminated in zip(OPS, first, ELIMINATION_COUNTS):
        assert row["code"] == 0
        assert 0 < row["table_product"] <= row["multiply"]
        assert 0 < row["alpha_apply"] <= row["alpha"]
        assert tuple(row[k] for k in ("eliminations", "inserts", "useful", "echelon",
                                      "free_basis")) == eliminated
        # the counted op prints the report an uncounted one prints
        capsys.readouterr()
        assert cli.main(op) == 0
        out = capsys.readouterr().out
        assert row["stdout_sha256"] == hashlib.sha256(out.encode()).hexdigest()


def test_the_command_line_prints_a_row_per_op_and_the_mean(capsys):
    tool = load_tool()
    assert tool.main([shlex.join(op) for op in OPS]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("\t")[:2 + len(tool.COUNTS)] == ["op", "code", *tool.COUNTS]
    assert [line.split("\t")[0] for line in lines[1:]] == ["0", "1", "mean"]


def test_eliminations_count_every_echelonizer_built():
    # an Echelonizer built by any caller counts, a subclass's too, whether
    # or not a row is inserted into it; `kernel` calls `echelon` twice, and
    # vectors that are already a reduced echelon basis build none, and
    # `echelon` inserts no zero vector
    tool = load_tool()
    modules = tool.import_skewalg()
    F = linalg.Field.rationals()

    class Sub(linalg.Echelonizer):
        pass

    counts = dict.fromkeys(tool.COUNTS, 0)
    with tool.counting(modules, counts):
        linalg.Echelonizer(F, 2)
        Sub(F, 3).insert((1, 2, 3))
        linalg.echelon(F, [(0, 0), (2, 0), (0, 0)], 2)
        # the rows reduce to (1, 1, 0); the null space (-1, 1, 0), (0, 0, 1) is not reduced
        linalg.kernel(F, [(2, 2, 0)], 3)
        linalg.free_basis(F, [(1, 1), (1, 0)], 2)
    assert (counts["eliminations"], counts["inserts"]) == (6, 7)
    assert (counts["echelon"], counts["free_basis"]) == (3, 1)
    with tool.counting(modules, counts):
        linalg.echelon(F, [], 2)
        linalg.kernel(F, [(1, 0), (0, 1)], 2)
        linalg.free_basis(F, [(0, 1), (0, 0), (1, 0)], 2)
    assert (counts["eliminations"], counts["inserts"]) == (6, 7)
    assert (counts["echelon"], counts["free_basis"]) == (6, 2)
