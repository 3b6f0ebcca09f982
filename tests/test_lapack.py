import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import LinAlgError
from scipy import linalg as sp_linalg

import magiciv
from magiciv import NumericalError, estimate_cue, write_csv
from magiciv import _lapack
from magiciv._kernel import _cho_factor_solve, _unit_cholesky
from magiciv.nuisance import _lstsq

from conftest import make_sim_dataset

EPS = np.finfo(float).eps
WIDTHS = [1, 2, 45, 287]


def _spd(width, seed):
    """A well-conditioned symmetric positive definite matrix."""
    x = np.random.default_rng(seed).standard_normal((3 * width + 5, width))
    return x.T @ x / x.shape[0] + 0.5 * np.eye(width)


def _exports_routines(lib):
    return any(hasattr(lib, fmt.format("dsyrk")) for fmt in _lapack._SYMBOL_FORMATS)


def test_import_binds_numpys_own_library():
    # where numpy's library exports the routines, the package calls them
    # there; elsewhere scipy's wrappers stand in, which this cannot check
    # every call site reads the routines from _lapack.ROUTINES when it calls:
    # no other module holds them, so replacing ROUTINES reaches every call
    modules = [m for name, m in sys.modules.items() if name.startswith("magiciv.")]
    held = {id(_lapack.ROUTINES), *map(id, _lapack.ROUTINES)}
    assert [m for m in modules if held & set(map(id, vars(m).values()))] == [_lapack]
    if not _exports_routines(_lapack._NUMPY_LAPACK):
        pytest.skip("numpy's library exports no ILP64 LAPACK; scipy's wrappers stand in")
    assert all(fn.__qualname__.startswith("_bind.") for fn in _lapack.ROUTINES)


@pytest.mark.parametrize("width", WIDTHS)
def test_potrf_matches_numpy_cholesky_bit_for_bit(width):
    # every factor comes from posv, which factors with potrf in the same
    # library as np.linalg.cholesky: the lower triangle is its factor to
    # the bit, and the upper one keeps the matrix's entries
    rng = np.random.default_rng(width + 5)
    for seed in range(3):
        a = _spd(width, 10 * width + seed)
        for b in (rng.standard_normal(width), rng.standard_normal((width, 2))):
            c, _ = _cho_factor_solve(a, b)
            assert c.flags.f_contiguous
            assert np.array_equal(np.tril(c), np.linalg.cholesky(a))
            assert np.array_equal(np.triu(c, 1), np.triu(a, 1))


@pytest.mark.parametrize("width", WIDTHS)
def test_potrs_matches_scipy_cho_solve_bit_for_bit(width):
    rng = np.random.default_rng(width)
    a = _spd(width, width)
    c, _ = _cho_factor_solve(a, np.ones(width))
    for b in (rng.standard_normal(width), rng.standard_normal((width, 3)), np.eye(width)):
        x = _lapack.ROUTINES.potrs(c, b)
        assert x.shape == b.shape
        assert np.array_equal(x, sp_linalg.cho_solve((c, True), b, check_finite=False))


@pytest.mark.parametrize("width", WIDTHS)
def test_posv_is_potrf_then_potrs_bit_for_bit(width, monkeypatch):
    # a unit-diagonal Gram is factored and solved in one posv call; its
    # solve must be potrs's on that factor, to the bit, for the 1- and
    # 2-column right-hand sides of F_q and the nuisance orders
    rng = np.random.default_rng(width + 3)
    numpys = _lapack.ROUTINES
    for lapack in (numpys, _lapack._scipy_routines()):  # numpy's library, scipy's
        monkeypatch.setattr(_lapack, "ROUTINES", lapack)
        for seed in range(3):
            units = rng.uniform(0.5, 2.0, width)  # columns in different units
            xtx = _spd(width, 10 * width + seed) * units[:, None] * units
            for rhs in (rng.standard_normal(width), rng.standard_normal((width, 2))):
                s, c, x = _unit_cholesky(xtx, rhs, 1e-10, "design", "a column")
                assert np.array_equal(s, 1.0 / np.sqrt(np.diag(xtx)))
                assert np.array_equal(x, lapack.potrs(c, (rhs.T * s).T))
                if lapack is numpys:
                    scaled = xtx * s[:, None] * s
                    assert np.array_equal(np.tril(c), np.linalg.cholesky(scaled))


def test_factor_solve_of_an_indefinite_matrix_names_the_minor():
    with pytest.raises(LinAlgError, match="2-th leading minor is not positive definite"):
        _cho_factor_solve(np.diag([1.0, -1.0, 1.0]), np.ones(3))
    c, x = _cho_factor_solve(np.diag([4.0, 1.0]), np.array([2.0, 3.0]))
    assert np.array_equal(np.tril(c), np.diag([2.0, 1.0])) and np.array_equal(x, [0.5, 3.0])


def test_cholesky_of_an_indefinite_matrix_names_the_minor(monkeypatch):
    # a unit-diagonal Gram whose second leading minor is 1 - 4 < 0: the
    # design's error carries posv's minor, on numpy's library and scipy's
    xtx = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for lapack in (_lapack.ROUTINES, _lapack._scipy_routines()):
        monkeypatch.setattr(_lapack, "ROUTINES", lapack)
        with pytest.raises(
            NumericalError,
            match=r"design rank < 3: X'X factorization failed "
            r"\(2-th leading minor is not positive definite\)",
        ):
            _unit_cholesky(xtx, np.ones(3), 1e-10, "design", "a column")


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("rows", [1, 7, 2048])
def test_syrk_matches_scipy_within_ulps(width, rows):
    # three chunks accumulated, as a streamed Gram adds them; entries agree
    # to a few ulps of the sum of |x_ki x_kj|, which bounds the rounding of
    # any summation order
    (syrk,) = sp_linalg.get_blas_funcs(("syrk",), (np.empty(0),))
    rng = np.random.default_rng(100 * width + rows)
    got = np.zeros((width, width), order="F")
    want = np.zeros((width, width), order="F")
    scale = np.zeros((width, width))
    for _ in range(3):
        x = rng.standard_normal((rows, width))
        got = _lapack.ROUTINES.syrk(got, np.ascontiguousarray(x.T))
        want = syrk(1.0, x.T, beta=1.0, c=want, overwrite_c=1)
        scale += np.abs(x).T @ np.abs(x)
    assert np.all(np.triu(np.abs(got - want)) <= 4 * EPS * scale)
    assert not np.tril(got, -1).any()  # only the upper triangle is written


@pytest.mark.parametrize("width", WIDTHS)
def test_pocon_matches_scipy_within_ulps(width):
    (pocon,) = sp_linalg.get_lapack_funcs(("pocon",), (np.empty(0),))
    a = _spd(width, width + 1)
    c, _ = _cho_factor_solve(a, np.ones(width))
    anorm = float(np.max(np.sum(np.abs(a), axis=0)))
    want, info = pocon(c, anorm, uplo="L")
    assert info == 0
    assert abs(_lapack.ROUTINES.pocon(c, anorm) - want) <= 4 * EPS * want


@pytest.mark.parametrize("width", WIDTHS)
def test_gelsy_matches_scipy(width):
    rng = np.random.default_rng(width + 2)
    n = 3 * width + 10
    design = np.column_stack([np.ones(n), rng.standard_normal((n, width))])
    rhs = rng.standard_normal((n, 2))
    cond = EPS * max(design.shape)
    coef, rank = _lstsq(design, rhs)
    want, _, want_rank, _ = sp_linalg.lstsq(
        design, rhs, cond=cond, lapack_driver="gelsy", check_finite=False
    )
    assert rank == want_rank == width + 1
    assert coef.shape == want.shape
    # a well-conditioned design: a different library build may round the
    # coefficients differently, by far less than this
    assert np.max(np.abs(coef - want)) <= 1e-12 * np.max(np.abs(want))


def test_gelsy_fits_a_duplicated_column_at_minimum_norm():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((200, 4))
    design = np.column_stack([np.ones(200), x, x[:, 1]])  # column 2 repeated
    rhs = rng.standard_normal((200, 2))
    coef, rank = _lstsq(design, rhs)
    _, _, want_rank, _ = sp_linalg.lstsq(
        design, rhs, cond=EPS * 200, lapack_driver="gelsy", check_finite=False
    )
    assert rank == want_rank == 5
    assert np.allclose(coef[2], coef[5], rtol=0, atol=1e-12)
    assert np.allclose(coef, np.linalg.pinv(design) @ rhs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("binding", ["numpy", "scipy"])
def test_gelsy_coefficients_hold_no_n_row_buffer(binding):
    # gelsy solves in an n-row buffer; a view of its leading rows would
    # keep it alive for as long as the coefficients (the memoized (1, z) fit)
    routines = _lapack.ROUTINES if binding == "numpy" else _lapack._scipy_routines()
    rng = np.random.default_rng(8)
    design = np.column_stack([np.ones(500), rng.standard_normal((500, 3))])
    rhs = rng.standard_normal((500, 2))
    for b in (rhs, rhs[:, 0]):
        coef, rank = routines.gelsy(design, b, EPS * 500)
        assert rank == 4 and coef.shape == (4,) + b.shape[1:]
        assert coef.base is None or coef.base.nbytes <= coef.nbytes
        assert np.allclose(coef, np.linalg.lstsq(design, b, rcond=None)[0], rtol=0, atol=1e-12)


def test_lstsq_refuses_more_columns_than_rows():
    with pytest.raises(NumericalError, match="need n >= 4"):
        _lstsq(np.ones((3, 4)), np.ones((3, 2)))


def test_scipy_fallback_gives_the_same_estimate(monkeypatch):
    # scipy's wrappers stand in for a library that does not export the
    # routines; a q = 3 fit runs every routine through them
    assert _lapack.resolve(None) is None
    fallback = _lapack._scipy_routines()
    assert all(fn.__qualname__.startswith("_scipy_routines.") for fn in fallback)
    calls = dict.fromkeys(fallback._fields, 0)

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    want = estimate_cue(make_sim_dataset(p=5, n=900, seed=31), q=3)
    monkeypatch.setattr(_lapack, "ROUTINES", _lapack.Routines(
        *(counted(name, fn) for name, fn in zip(fallback._fields, fallback))
    ))
    got = estimate_cue(make_sim_dataset(p=5, n=900, seed=31), q=3)
    assert all(calls.values()), calls
    for field, value in vars(want).items():
        other = getattr(got, field)
        if isinstance(value, float):
            assert other == pytest.approx(value, rel=1e-12, abs=1e-15), field
        else:
            assert other == value, field


def test_fallback_without_scipy_names_the_missing_symbols_and_the_extra(monkeypatch):
    # scipy is an optional extra: a library without the routines and no
    # scipy to stand in must say what is missing and how to install it
    monkeypatch.setitem(sys.modules, "scipy", None)
    with pytest.raises(ImportError, match=r"scipy_dposv_64_.*dgelsy_64_.*magiciv\[scipy\]"):
        _lapack._scipy_routines()


_HYGIENE = """
import json, sys
import magiciv.cli as cli
from magiciv import ScenarioConfig, run_monte_carlo

args = json.loads(sys.argv[1])
added = []
for run in (lambda: cli.main(args), lambda: run_monte_carlo(
        ScenarioConfig(p=4, n=300, seed=1), 2,
        methods=("magic", "tsls", "efficient_fixed_r"), workers=1)):
    run()
    before = set(sys.modules)
    run()
    added.append(sorted(set(sys.modules) - before))
scipy = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps({"added": added, "scipy": scipy}))
"""


def test_import_loads_no_scipy_and_repeat_calls_load_nothing(tmp_path):
    # a second estimate or Monte Carlo call that imports a module means a
    # forked pool worker imports it on every call; scipy costs about 0.2 s
    # and 22 MiB per process
    ds = make_sim_dataset(p=4, n=300, seed=2)
    csv = tmp_path / "small.csv"
    write_csv(ds, csv)
    args = ["estimate", "--input", str(csv), "--instruments", ",".join(ds.names()),
            "--q", "3", "--output", str(tmp_path / "out.json")]
    src = str(Path(magiciv.__file__).resolve().parent.parent)
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", _HYGIENE, json.dumps(args)],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["scipy"] == []
    assert report["added"] == [[], []]
