"""The CSV writer against its reference: each entry's bytes are ``repr`` of
the float, ``",".join(map(repr, row))`` per line."""

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from delsarte.ioutil import _CHUNK, load_matrix_csv, save_matrix_csv


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


# values of every layout: +-0.0, nan, +-inf, subnormals, the extremes,
# integers, and positional and exponent forms near the switch
_SPECIAL_VALUES = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
                            1.7976931348623157e308, 1.0, -7.0, 1e16, 1e17, 1e-4, 1e-5, 0.1])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(width=st.sampled_from([1, 2, 37, 2 * _CHUNK + 5]), blocks=st.integers(1, 3),
       extra=st.integers(-1, 1), cplx=st.booleans(), lower=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_streamed_blocks_match_repr(tmp_path_factory, width, blocks, extra, cplx, lower,
                                    seed):
    # the writer formats blocks of rows holding about two _CHUNKs of values;
    # tables whose rows span one to three blocks, a row more or less, one
    # column wide or wider than a whole block, real or complex, with zero
    # runs (strictly lower) or without, keep the reference bytes
    step = max(1, 2 * _CHUNK // (width * (2 if cplx else 1)))
    rows = max(1, blocks * step + extra)
    rng = np.random.default_rng(seed)

    def draw():
        bits = rng.integers(0, 2 ** 64, (rows, width), dtype=np.uint64).view(np.float64)
        pick = rng.integers(0, 4, (rows, width))
        A = np.select([pick == 0, pick == 1, pick == 2],
                      [bits, rng.standard_normal((rows, width)),
                       rng.choice(_SPECIAL_VALUES, (rows, width))], 0.0)
        return np.tril(A, -1) if lower else A

    A = draw()
    if cplx:
        A = A.astype(complex)
        A.imag = draw()
    p = tmp_path_factory.mktemp("csv") / "m.csv"
    assert _written_body(p, A) == _repr_body(A)


def test_writes_hold_one_block_of_text(tmp_path, traced_peak):
    # the 600 x 600 strictly lower table (the pair kernel's shape) and a
    # dense 300 x 300 one: the whole-table writer held 11.2 and 6.7 MB of
    # temporaries, and the block writer holds what one block's formatting
    # needs, whatever the row count
    rng = np.random.default_rng(7)
    for A in (np.tril(rng.standard_normal((600, 600)), -1), rng.standard_normal((300, 300))):
        _, peak = traced_peak(save_matrix_csv, tmp_path / "m.csv", A)
        assert peak <= 4.5e6
    short, tall = [traced_peak(save_matrix_csv, tmp_path / "m.csv",
                               rng.standard_normal((rows, 300)))[1] for rows in (600, 2400)]
    assert tall <= short + 0.5e6
