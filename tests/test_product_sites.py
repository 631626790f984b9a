"""Where `src/saftlab` may form a matrix product.

A product over point arrays goes through `params._fixed_product`, which sums
each output in index order: a BLAS product may round a point by the size of
its batch, and a large one wakes OpenBLAS's thread pool, whose idle worker
then spins after the call.  Only the functions listed here may use ``@``,
``matmul``, ``dot`` or ``einsum``; the list must match the code exactly.
"""

import ast
from pathlib import Path

import saftlab

ALLOWED = {
    # the grid kernel's GEMM, pinned to the calling thread
    ("saft.py", "grid_phase_sum"),
    # n x n algebra of the block itself: its constraint residuals and the
    # matrices derived from B^{-1}, each formed on first read
    ("params.py", "SaftParams.__post_init__"),
    ("params.py", "SaftParams.b_inv_a"),
    ("params.py", "SaftParams.d_b_inv"),
    ("params.py", "SaftParams.b_inv_p"),
    ("params.py", "SaftParams._mod_lin"),
    ("params.py", "inverse_params"),
    ("params.py", "random_params"),
    # exact integer lattice code: the one coset reduction, and its inverse
    ("lattice.py", "_reduce"),
    ("lattice.py", "merge_sequence"),
    # a generator's plane wave and chirp
    ("grid.py", "_gen_gaussian"),
}

_NAMES = {"matmul", "dot", "einsum"}


def _product_sites(path: Path) -> set[tuple[str, str, int]]:
    """(file, qualified name of the enclosing top-level function or method,
    line) of each product; a nested helper counts as its parent."""
    sites = set()

    def visit(node, scope, in_function):
        if not in_function and isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope, in_function = scope + (node.name,), isinstance(node, ast.FunctionDef)
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _NAMES):
            sites.add((path.name, ".".join(scope) or "<module>", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, in_function)

    visit(ast.parse(path.read_text()), (), False)
    return sites


def test_matrix_products_stay_in_the_listed_functions():
    src = Path(saftlab.__file__).parent
    sites = set().union(*(_product_sites(f) for f in sorted(src.glob("*.py"))))
    stray = sorted(s for s in sites if s[:2] not in ALLOWED)
    assert not stray, f"matrix products outside the allowed functions: {stray}"
    assert {s[:2] for s in sites} == ALLOWED, "an allowed function no longer forms a product"


def test_dual_coset_points_are_formed_in_lattice_alone():
    # M^{-1} reaches the code only through SamplingLattice.coset_points, so
    # build_D, the channel Vandermonde and downsample_check share one sum
    src = Path(saftlab.__file__).parent
    sites = [(f.name, node.lineno) for f in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(f.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "m_inverse"]
    assert sites and {name for name, _ in sites} == {"lattice.py"}, sites


def _linalg_sites(path: Path, name: str) -> list[tuple[str, int]]:
    """(file, line) of each ``linalg.<name>`` in ``path``."""
    return [(path.name, node.lineno) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"]


def test_one_linear_solve_serves_both_recovery_routes():
    # recover_discrete and recover_continuous share dynsamp._solve
    src = Path(saftlab.__file__).parent
    sites = [s for f in sorted(src.glob("*.py")) for s in _linalg_sites(f, "solve")]
    assert len(sites) == 1 and sites[0][0] == "dynsamp.py", sites


def test_one_stability_scan_takes_the_field_determinants():
    # stability_report is the one place a channel-matrix field's determinants
    # and condition numbers are formed; the solvers, repro's checks and the
    # CLI read MatrixField.stability (params.py's determinants of B are the
    # block's own n x n algebra)
    src = Path(saftlab.__file__).parent
    for name in ("det", "cond"):
        sites = [s for f in ("dynsamp.py", "repro.py", "cli.py")
                 for s in _linalg_sites(src / f, name)]
        assert len(sites) == 1 and sites[0][0] == "dynsamp.py", (name, sites)
