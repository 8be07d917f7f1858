"""Shared helpers: random inputs, independent oracles, and the device corpus."""

import platform

import numpy as np
import pytest

from qmeter import catalog

# The build the byte-for-byte digests in the tests were recorded on.
PINNED_BUILD = "numpy 2.4.6, OpenBLAS 0.3.31, x86-64"


def build_note():
    """This run's numpy/BLAS build next to ``PINNED_BUILD``, so a digest failure can be traced to the build."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    build = f"numpy {np.__version__}, {blas.get('name', '?')} {blas.get('version', '?')}, {platform.machine()}"
    return f"qmeter digests recorded on: {PINNED_BUILD}; this run: {build}"


def pytest_report_header(config):
    return build_note()


def rand_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def rand_hermitian(rng, d):
    a = rand_complex(rng, d, d)
    return 0.5 * (a + a.conj().T)


def charpoly_eigenvalues(h, grid_points=4001, refine_tol=1e-12):
    """Brute-force eigenvalue oracle: scan det(h - x*I) for sign changes, bisect.

    Independent of the package's LAPACK eigensolver. Only reliable for matrices
    with well-separated simple eigenvalues (seeded test inputs are checked to
    produce exactly d roots).
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    eye = np.eye(d)

    def f(x):
        return np.linalg.det(h - x * eye).real

    bound = float(np.linalg.norm(h, ord="fro")) + 1.0
    xs = np.linspace(-bound, bound, grid_points)
    vals = np.array([f(x) for x in xs])
    roots = []
    for i in range(grid_points - 1):
        if vals[i] == 0.0:
            roots.append(xs[i])
            continue
        if vals[i] * vals[i + 1] < 0.0:
            lo, hi, flo = xs[i], xs[i + 1], vals[i]
            while hi - lo > refine_tol:
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if fm == 0.0:
                    lo = hi = mid
                elif (fm > 0.0) == (flo > 0.0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    return np.sort(np.array(roots))[::-1]


def corpus_params(count, seed_base=1000):
    """Deterministic (d, n, seed) triples covering d in 2..4 and n in 2..6."""
    return [(2 + i % 3, 2 + i % 5, seed_base + i) for i in range(count)]


def overlap2(a, b):
    """Phase-insensitive squared overlap |<a|b>|^2."""
    return float(abs(np.vdot(np.asarray(a), np.asarray(b))) ** 2)


@pytest.fixture(scope="session")
def device_corpus():
    """The 1000-device random corpus shared by the relation/bound sweeps."""
    return [catalog.random_device(d, n, seed) for d, n, seed in corpus_params(1000)]
