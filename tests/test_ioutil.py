"""The CSV writer against its reference: each entry's bytes are ``repr`` of
the float, ``",".join(map(repr, row))`` per line."""

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from delsarte.ioutil import load_matrix_csv, save_matrix_csv


def _repr_body(A) -> bytes:
    """The reference lines: one ``repr`` per entry, re/im pairs for complex."""
    A = np.atleast_2d(A)
    if np.iscomplexobj(A):
        flat = np.empty((A.shape[0], 2 * A.shape[1]))
        flat[:, 0::2], flat[:, 1::2] = A.real, A.imag
    else:
        flat = A.astype(float)
    return "".join(",".join(map(repr, row)) + "\n" for row in flat.tolist()).encode()


def _written_body(path, A) -> bytes:
    save_matrix_csv(path, A)
    return path.read_bytes().split(b"\n", 1)[1]


def _with_neighbours(v):
    v = np.asarray(v, dtype=float)
    return np.concatenate([v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)])


def test_float_repr_style_is_short():
    # the writer reproduces the shortest round-trip repr, CPython's 'short' style
    assert sys.float_repr_style == "short"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(A=arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=12),
                elements=st.floats(allow_nan=True, allow_infinity=True,
                                   allow_subnormal=True)))
def test_drawn_real_tables_match_repr(tmp_path_factory, A):
    # drawn floats include subnormals, +-0.0, nan and +-inf; 0.0 is drawn
    # often, so rows with zero runs come up
    p = tmp_path_factory.mktemp("csv") / "m.csv"
    assert _written_body(p, A) == _repr_body(A)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(re=arrays(np.float64, (5, 4), elements=st.floats(allow_subnormal=True)),
       im=arrays(np.float64, (5, 4), elements=st.floats(allow_subnormal=True)))
def test_drawn_complex_tables_match_repr(tmp_path_factory, re, im):
    A = np.empty(re.shape, dtype=complex)
    A.real, A.imag = re, im
    p = tmp_path_factory.mktemp("csv") / "m.csv"
    assert _written_body(p, A) == _repr_body(A)


def test_random_bit_patterns_match_repr(tmp_path):
    # 10**6 seeded 64-bit patterns (nan and inf among them), written as four
    # 500 x 500 tables, every value's bytes against repr
    rng = np.random.default_rng(20240611)
    p = tmp_path / "m.csv"
    for _ in range(4):
        A = rng.integers(0, 2 ** 64, (500, 500), dtype=np.uint64).view(np.float64)
        assert _written_body(p, A) == _repr_body(A)


def test_powers_of_two_and_ten_match_repr(tmp_path):
    # each power of two with its neighbours (the lower one is the
    # closer-lower-boundary case), each power of ten from 1e-323 to 1e308
    # with its neighbours, both signs
    twos = _with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
    tens = _with_neighbours([float(f"1e{e}") for e in range(-323, 309)])
    p = tmp_path / "m.csv"
    for v in (twos, tens):
        A = np.concatenate([v, -v]).reshape(-1, 6)
        assert _written_body(p, A) == _repr_body(A)


def test_integers_and_normal_draws_round_trip(tmp_path):
    # the integers in +-1e5, and N(0, 1) draws at three scales, read back
    # bit for bit
    rng = np.random.default_rng(3)
    p = tmp_path / "m.csv"
    for A in (np.arange(-100000.0, 100001.0).reshape(-1, 3),
              rng.standard_normal((300, 300)) * np.array([[1e-5], [1.0], [1e5]]).repeat(100, 0)):
        assert _written_body(p, A) == _repr_body(A)
        assert load_matrix_csv(p).tobytes() == A.tobytes()
