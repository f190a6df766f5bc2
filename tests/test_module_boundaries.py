"""Module boundaries of torma's source: no module reads another's private
names, the solver runs on numpy and scipy.fft alone, the evaluation layer is
entrywise, and only the owners of a metric's factor factor it."""

import ast
import inspect
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import torma
from torma import equations as eq
from torma import geometry as geo
from torma import grid as gr
from torma import hermitian as ha
from torma import manufacture as mf
from torma import solver as sv
from torma import testfields as tf

SOURCES = sorted(Path(torma.__file__).parent.glob("*.py"))
# the aliases torma's modules import each other under (geo, gr, ha, ...)
PRIVATE_READ = re.compile(r"\b(geo|gr|ha|eq|sv|tf|mf|dg|pl)\._[A-Za-z]")
# GMRES is solver._gmres; scipy.sparse (and scipy.linalg, which it loads)
# would cost about 10 MiB of resident memory for one function
SCIPY_SOLVER_IMPORT = re.compile(
    r"^\s*(import\s+scipy\.(sparse|linalg)\b|from\s+scipy\.(sparse|linalg)\b"
    r"|from\s+scipy\s+import\s.*\b(sparse|linalg)\b)"
)


# every pointwise field of an evaluation and a Newton linearization is built in
# hermitian's entrywise (n, n, *nodes) layout, with no contraction over
# trailing matrix axes and no Hermitian-part copy
ENTRYWISE = [
    eq.tilde_metric, eq.e_term, eq.Linearization.__init__, sv._newton, sv.newton_step,
    sv.gauduchon_factor,
    # and the kernels they build from
    eq.torsion_operator_entries, eq.torsion_coefficient, eq._torsion_parts,
    eq._add_torsion, eq._torsion_term, eq._second_order_terms, eq._first_order_terms,
    gr.hessian_parts, gr.hessian_trace,
    # and the (n-1,n-1)-form kernels of the pipelines
    geo.MetricFields.gauduchon_scalar, geo.MetricFields.ddbar_scalar,
    geo.MetricFields.astheno_dual, ha.nm1_root,
]
STACKED = re.compile(r"np\.einsum|hermitize\(")
# the root is a relative Cholesky factor and no eigendecomposition is taken;
# eigvalsh stays for the margin screen and the relative eigenvalues
EIGH = re.compile(r"\beigh\(")

# the functions that factor a metric (call ha.require_positive or
# ha.cholesky): the owner, geometry.MetricFields, when it is built; gt's
# factorization in a solve, and Linearization's when it is handed none;
# testfields' generators and manufacture, which validate what they make.
# hermitian's own public entry points, which validate the fields they are
# given, may too.
# Anywhere else a factorization re-validates a metric some owner holds.
FACTORING = [
    geo.MetricFields.__init__, sv._factored, eq.Linearization.__init__,
    tf.kahler_perturbation, tf.pluriclosed_metric, tf.random_hermitian_metric,
    mf._assemble,
]
FACTOR_CALLS = {"require_positive", "cholesky"}


def _hits(pattern):
    return [f"{path.name}:{number}: {line.strip()}"
            for path in SOURCES
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if pattern.search(line)]


def test_no_module_reads_another_modules_private_names():
    hits = _hits(PRIVATE_READ)
    assert not hits, "\n".join(hits)


def test_no_module_imports_scipy_sparse_or_linalg():
    hits = _hits(SCIPY_SOLVER_IMPORT)
    assert not hits, "\n".join(hits)


def test_solves_leave_scipy_sparse_unloaded():
    # a fresh interpreter: this test session has loaded scipy.sparse already
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from torma import equations as eq, grid as gr, solver as sv, testfields as tf
        from torma.manufacture import manufacture_problem

        grid = gr.TorusGrid.reduced(3, 32, active_coords=(0, 2))
        rng = np.random.default_rng(5)
        for variant in (eq.Variant.PSI, eq.Variant.PHI):
            prob = manufacture_problem(grid, variant, rng, amplitude=0.04)
            report = sv.continuity_solve(prob.spec)
            assert report.converged and report.linear_iterations() > 0
        sv.adjoint_kernel(prob.spec, report.state)
        sv.gauduchon_factor(grid, tf.random_hermitian_metric(grid, rng, amplitude=0.2,
                                                             max_mode=1))
        print(sorted(m for m in sys.modules if m.startswith(("scipy.sparse", "scipy.linalg"))))
    """)
    src = str(Path(torma.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": src}, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("fn", ENTRYWISE, ids=lambda fn: fn.__qualname__)
def test_evaluation_layer_is_entrywise(fn):
    hits = [line.strip() for line in inspect.getsource(fn).splitlines() if STACKED.search(line)]
    assert not hits, "\n".join(hits)


def test_no_module_calls_eigh():
    hits = _hits(EIGH)
    assert not hits, "\n".join(hits)


def test_geometry_has_one_ddbar_calculus():
    # every ddbar defect is a divergence of a flat dual built from g's minors;
    # the four-block wedge path (the g-trace K of ddbar_g, the raised
    # first-order families and their alternating sums) and the matrix
    # calculus of the cofactor divergence on g^{-1} stay deleted
    deleted = ("_ddbar_terms", "_ddbar_trace", "_ddbar_dual", "_raised_d",
               "_raised_dbar", "_alternating", "_gauduchon_sum", "_trace_product")
    assert not [name for name in deleted if hasattr(geo, name)]
    assert not hasattr(geo.MetricFields, "k")


def _factoring_sites():
    """module.qualname of every src function that calls a factor entry point
    of hermitian (ha.name, or name within hermitian)."""
    sites = set()

    def calls_factor(fn, module):
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                f = node.func
                if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                        and f.value.id == "ha" and f.attr in FACTOR_CALLS):
                    return True
                if module == "hermitian" and isinstance(f, ast.Name) and f.id in FACTOR_CALLS:
                    return True
        return False

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef) and calls_factor(child, module):
                    sites.add(f"{module}.{name}")
                visit(child, module, name + ".")

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return sites


def _site(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def test_only_owners_factor_a_metric():
    sites = _factoring_sites()
    hermitian = {s for s in sites if s.startswith("hermitian.")}
    assert all(not s.split(".", 1)[1].startswith("_") for s in hermitian), sorted(hermitian)
    assert sites - hermitian == {_site(fn) for fn in FACTORING}
    assert {_site(getattr(ha, name)) for name in ("star_power", "nm1_root")} <= hermitian


def test_grid_has_no_bare_array_weights():
    # volume weights of a bare metric array are the tests' own
    # (oracle_forms.volume_weights); torma weighs by log det of a factor
    assert not hasattr(gr, "volume_weights")
