"""Shared fixtures: small hand-built texts used across the suite, and a
call counter for qtext functions."""

import functools
import sys

import numpy as np
import pytest

from qtext import validate_text


def uniform_gram(n, z):
    return np.full((n, n), z, dtype=complex) + (1.0 - z) * np.eye(n)


def near_zero_gram(n, rng):
    """Seeded valid n x n Gram matrix whose off-diagonal entries are exact
    zeros, +-1e-9 (ZERO_TOL exactly, real or imaginary), 1e-9 scaled by a
    unit phase, values just above 1e-9, or complex and real entries of
    modulus up to 0.4 / n (diagonally dominant, so positive definite)."""
    iu = np.triu_indices(n, 1)
    m = iu[0].size
    kind = rng.integers(0, 6, size=m)
    phase = np.exp(2j * np.pi * rng.uniform(size=m))
    big = 0.4 / n * rng.uniform(size=m) * phase
    vals = np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3, kind == 4],
        [0.0, rng.choice([1e-9, -1e-9, 1e-9j, -1e-9j], size=m),
         1e-9 * phase, 1e-9 * (1.0 + 1e-6 * rng.uniform(size=m)), big],
        default=big.real)
    g = np.eye(n, dtype=complex)
    g[iu] = vals
    g[iu[1], iu[0]] = vals.conj()
    return g


@pytest.fixture
def uniform3():
    # all pairwise overlaps 1/2
    return validate_text(uniform_gram(3, 0.5))


@pytest.fixture
def path3():
    # chain 0-1-2 with the ends orthogonal
    g = np.array([[1.0, 0.5, 0.0],
                  [0.5, 1.0, 0.2],
                  [0.0, 0.2, 1.0]], dtype=complex)
    return validate_text(g)


@pytest.fixture
def two_k2():
    # two disjoint overlapping pairs
    g = np.eye(4, dtype=complex)
    g[0, 1] = g[1, 0] = 0.5
    g[2, 3] = g[3, 2] = 0.5
    return validate_text(g)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) rebinds a counting wrapper of `fn` under every name
    a loaded qtext module binds it to, so calls from inside the package are
    seen too, and returns the list of argument tuples its calls append to.
    The original bindings come back at teardown."""

    def install(fn):
        calls = []

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "qtext" or name.startswith("qtext."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counting)
        return calls

    return install
