"""Truncated operator blocks in orthonormal Bergman bases and the
Fredholm-determinant potential.

Conventions (also emitted in every CLI report):

* bases e_n(z) = sqrt(n/pi) z^(n-1) on the disk and
  estar_n(w) = sqrt(n/pi) w^(-n-1) on the exterior, n >= 1;
* block entries are matrix elements of the four kernel operators in these
  bases. With the generating expansions

      log((f(z)-f(w))/(z-w))  = sum b_mn z^m w^n,
      log((g(z)-g(w))/(z-w))  = sum bt_mn z^-m w^-n   (+ const),
      log(1 - f(z)/g(w))      = sum c_mn z^m w^-n,

  the blocks are b1[m,n] = -sqrt(mn) b_mn, b4[m,n] = -sqrt(mn) bt_mn,
  b2[m,n] = -sqrt(mn) c_mn and b3 = transpose(b2) (the kernel symmetry
  K3(z,w) = K2(w,z)). The global sign cancels in every reported quantity,
  which all factor through B B*.
* the interior and exterior contraction blocks satisfy
  ||b1|| < 1, ||b4|| < 1 and the four block relations
  B1 B1* + B2 B2* = I,  B3 B1* + B4 B2* = 0,
  B1 B3* + B2 B4* = 0,  B3 B3* + B4 B4* = I
  of the infinite operators; ``grunsky_operator_residual`` measures them
  with inner sums carried to a certified depth, ``grunsky_identity_residual``
  measures the same relations among truncated N x N blocks.
* the determinant potential is reported with two signs:
  ``s2_univ`` = log det(I - B B*) <= 0 and ``s2_dg`` = -s2_univ >= 0.
  ``potential`` is the one path from a map to it: it builds the map's
  block (b1 or b4) at the largest order for ``logdet_potential``,
  which takes every truncation order from LAPACK Cholesky
  factorizations at the largest, read as LDL^T pivots: of I - B and I + B
  for a real block, of I - S for the real embedding S of a complex one,
  one per symmetry orbit of the indices of a k-fold block (each index of
  a diagonal one), orbits of equal size in one stacked call. Each order
  pairs two pivots whose diagonal entries -+b_kk cancel exactly, kept in
  defect form (the 1 never added), and every pivot positive certifies
  sigma_max(B_n) < 1 for all the orders at once.

All entries are computed from generating functions D with D(0, y) = 1 by
one Newton series log, L = integral of D_x / D (``series._log_bivariate``:
a Newton inverse of D and one product, all two-dimensional FFT products
on 5-smooth lengths, O(N^2 log N) for an N x N block; b1 is the b4 of
1/f(1/z)); no kernel quadrature is performed. A pair of a curve with
k-fold rotational symmetry has series that are exactly zero off one
residue class mod k (f keeps the powers 1 mod k, g those of z^(1-n) with
n = 0 mod k; ``maps.StarDomain.order``), so the generating arrays of b1
and b4, their logs and the blocks are exactly zero unless m + n = 0
(mod k), and those of b2 and b3 unless m - n = 0 (mod k), since
log(1 - f(z)/g(w)) is invariant under (z, w) -> (omega z, omega w). Both
read their classes off exact zeros (``series._class_order``): the log
works on one residue class of its spectrum in either orientation, and
the determinant on one orbit of classes at a time. An array whose
entries all lie on m = n, as the ellipse's b4 from log(1 - c/(zw)), is a
series in one variable: the log takes its diagonal as one column, and
the determinant factors each index alone. The builders hand the log its
generating array in a list it empties, so the array is freed once its
spectrum is taken, and weight its output by row blocks: b1 of the
c = 0.5 ellipse at N = 1280 peaks at the log's own 29.4 MiB traced
(50.1 MiB when the array and two full-size weight temporaries were kept).
Arrays keep their series' dtype: a float64 map (of a conjugation-symmetric
domain, see ``maps.StarDomain.symmetric``) gives real generating arrays,
real transforms in the second variable and float64 blocks, so the
determinant's factorization and the relation products run in real
arithmetic; a complex128 map takes the complex path. Every builder takes
the series it reads (b1 the interior map f, b4 the exterior map g, b2 and
b3 both) and returns the leading n rows and ``cols`` columns (default n)
of its block; the entries are exact to roundoff given series coefficients
through index n + cols + 1 (b4: n + cols), which a series must hold unless
it is resolved: its missing coefficients are then zero to the floor. A
builder refuses its maps only for what it reads, the grading and missing
coefficients: the entries are exact series algebra, so the curve's shape
is never asked for; ``maps`` checks each map against it where it is made.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInput, NumericalFailure
from .maps import WeldingPair, inverted_domain, inverted_series, one_map
from .series import (
    ComplexSeries,
    Kind,
    _class_order,
    _log_bivariate,
    reciprocal_array,
)


# ---------------------------------------------------------------------------
# report type shared with the quadrature module
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    """Per-order estimates of a scalar; the last estimate is the value and
    the last increment its residual."""

    orders: tuple
    estimates: tuple

    def __post_init__(self):
        orders = tuple(int(n) for n in self.orders)
        if any(b <= a for a, b in zip(orders, orders[1:])):
            raise InvalidInput("orders must be strictly increasing")
        estimates = tuple(float(x) for x in self.estimates)
        if not orders or len(estimates) != len(orders):
            raise InvalidInput("a report needs one or more orders, one estimate each")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "estimates", estimates)

    @property
    def extrapolated(self) -> float:
        return self.estimates[-1]

    @property
    def residual_tail(self) -> float:
        """The last increment, 0 for a single order."""
        last = self.estimates[-2:]
        return abs(last[-1] - last[0])

    def to_dict(self) -> dict:
        return {"orders": list(self.orders),
                "estimates": list(self.estimates),
                "extrapolated": self.extrapolated,
                "residual_tail": self.residual_tail}


# ---------------------------------------------------------------------------
# generating arrays and blocks
# ---------------------------------------------------------------------------

# entries of one row block of a block's weights and of its symmetry check:
# 2^17 values are 1 MB of float64
_ROW_BLOCK = 1 << 17

def _padded(coeffs: np.ndarray, need: int) -> np.ndarray:
    out = np.zeros(need, dtype=coeffs.dtype)
    out[:len(coeffs)] = coeffs[:need]
    return out


# a build adds about 2.2 times its generating array (b1, N = 1280 to 5120),
# charged at 40 bytes an entry; real b1 at N = 5120 peaked at 461 MB
_BLOCK_BYTES_MAX = 1 << 30


def _block_cols(n: int, cols) -> int:
    """The column count of an n-row block (default n); both must be >= 1,
    and the build's estimated bytes within ``_BLOCK_BYTES_MAX``."""
    cols = n if cols is None else cols
    if n < 1 or cols < 1:
        raise InvalidInput(f"a block needs N >= 1 rows and columns, got {n} x {cols}")
    need = 40 * (n + 1) * (cols + 1)
    if need > _BLOCK_BYTES_MAX:
        raise InvalidInput(f"a block of N = {n} rows and {cols} columns needs "
                           f"an estimated {need} bytes, over the cap of "
                           f"{_BLOCK_BYTES_MAX}")
    return cols


def _require_order(series: ComplexSeries, need: int, side: str):
    """Reject what is not a series of the ``side``'s grading, and an
    unresolved series with fewer than ``need`` coefficients.

    A ``resolved`` series (closed form or floor-trimmed extraction) may be
    zero-padded exactly, so any block is admissible for it.
    """
    kind, name = ((Kind.TAYLOR_AT_ZERO, "Taylor") if side == "interior"
                  else (Kind.LAURENT_AT_INFINITY, "Laurent"))
    if not isinstance(series, ComplexSeries) or series.kind is not kind:
        raise InvalidInput(f"{side} block needs a {name} series")
    if series.order >= need or series.resolved:
        return
    raise InvalidInput(
        f"{side} series order {series.order} is below the {need} "
        "coefficients the block reads, and its tail is not resolved")


def _block(held: list, rows: int, cols: int) -> np.ndarray:
    """-sqrt(mn) [x^m y^n] log D for m = 1..rows, n = 1..cols, of the
    generating array D that ``held`` holds as its one item: the log takes
    it out, so D is freed once its spectrum is taken. The weights are
    applied by row blocks of at most ``_ROW_BLOCK`` entries as the block
    is copied out of the log, so no full-size weight array is formed."""
    ell = _log_bivariate(held)
    out = np.empty((rows, cols), dtype=ell.dtype)
    n = np.arange(1, cols + 1, dtype=float)
    step = max(1, _ROW_BLOCK // cols)
    for i in range(0, rows, step):
        m = np.arange(i + 1, min(i + step, rows) + 1, dtype=float)
        np.multiply(-np.sqrt(np.outer(m, n)), ell[i + 1:i + 1 + len(m), 1:],
                    out=out[i:i + len(m)])
    return out


def _exterior_array(g: np.ndarray, n: int, cols: int) -> np.ndarray:
    """The generating array of log((g(z)-g(w))/(z-w)) for Laurent
    coefficients g with g[0] != 0: its argument is
    1 - sum_{p,q>=1} (g[p+q]/g[0]) z^-p w^-q, a Hankel array copied in
    one pass from a strided view of g."""
    gg = _padded(g, n + cols + 2)
    gg = gg / gg[0]
    d = np.zeros((n + 1, cols + 1), dtype=gg.dtype)
    d[0, 0] = 1.0
    np.negative(sliding_window_view(gg[2:], cols)[:n], out=d[1:, 1:])
    return d


def build_b1(f: ComplexSeries, n: int, cols: int = None) -> np.ndarray:
    """Interior contraction block from log((f(z)-f(w))/(z-w)): rows 1..n,
    columns 1..cols (default n): the exterior block of 1/f(1/z), whose
    Laurent coefficients are the Taylor coefficients of z/f(z). Under
    z -> 1/z, w -> 1/w the two generating functions differ only by terms
    in one variable, which no block entry reads."""
    cols = _block_cols(n, cols)
    _require_order(f, n + cols + 2, "interior")
    quotient = _padded(f.coeffs, n + cols + 3)[1:]  # f(z)/z, f'(0) != 0
    return _block([_exterior_array(reciprocal_array(quotient), n, cols)], n, cols)


def build_b4(g: ComplexSeries, n: int, cols: int = None) -> np.ndarray:
    """Exterior contraction block from log((g(z)-g(w))/(z-w)): rows 1..n,
    columns 1..cols (default n).

    An affine rescaling of g shifts only the constant term of the
    generating function, so the block is invariant under it.
    """
    cols = _block_cols(n, cols)
    _require_order(g, n + cols + 1, "exterior")
    if g.coeffs[0] == 0:
        raise InvalidInput("exterior map must have nonzero leading coefficient")
    return _block([_exterior_array(g.coeffs, n, cols)], n, cols)


def _mixed_array(first: np.ndarray, second: np.ndarray, rows: int,
                 cols: int) -> np.ndarray:
    """The generating array of log(1 + u(x) v(y)), where ``first`` and
    ``second`` hold the coefficients of u and v (zero constant terms)."""
    e = np.outer(first[:rows + 1], second[:cols + 1])
    e[0, 0] = 1.0
    return e


def build_b2_b3(f: ComplexSeries, g: ComplexSeries, n: int, cols: int = None):
    """Mixed blocks from log(1 - f(z)/g(w)); returns (b2, b3 = b2^T).

    Both are returned as rows 1..n and columns 1..cols (default n). A
    square block's b3 is the transpose of its b2. When cols != n, the b3
    rows are the leading n columns of a different rectangle of b2, so they
    come from a second log with the roles of the two variables swapped.
    As for b1 and b4, only the grading and missing coefficients refuse the
    maps (InvalidInput): one reciprocal and one log are exact for any
    pair, an off-centre disk included, so its curve is never sampled.
    """
    cols = _block_cols(n, cols)
    big = max(n, cols)
    _require_order(f, big + 1, "interior")
    _require_order(g, big + 1, "exterior")
    f_arr = _padded(f.coeffs, big + 1)
    g_arr = _padded(g.coeffs, big + 1)
    # Laurent coefficients of 1/g: 1/g(w) = x * recip(sum g_k x^k), x = 1/w
    inv = reciprocal_array(g_arr)
    dcoef = np.zeros(big + 1, dtype=inv.dtype)
    dcoef[1:] = inv[:big]
    b2 = _block([_mixed_array(-f_arr, dcoef, n, cols)], n, cols)
    if cols == n:
        return b2, np.ascontiguousarray(b2.T)
    return b2, _block([_mixed_array(-dcoef, f_arr, n, cols)], n, cols)


# ---------------------------------------------------------------------------
# residuals and determinants
# ---------------------------------------------------------------------------

def _relation_norms(b1, b2, b3, b4, h: int):
    """Frobenius norms of the four block relations on their leading h x h
    block, from the leading h rows of each block (columns: inner-sum
    index). The third relation, B1 B3* + B2 B4*, is the adjoint of the
    second and has its norm. ``np.einsum`` forms the products and the sums
    of squares without BLAS, so the digits do not depend on its thread
    count."""
    b1, b2, b3, b4 = (b[:h] for b in (b1, b2, b3, b4))
    eye = np.eye(h)

    def product(x, y):
        return np.einsum("ik,jk->ij", x, y.conj())

    r1 = product(b1, b1) + product(b2, b2) - eye
    r2 = product(b3, b1) + product(b4, b2)
    r4 = product(b3, b3) + product(b4, b4) - eye
    n1, n2, n4 = (float(np.sqrt(np.einsum("ij,ij->", r, r.conj()).real))
                  for r in (r1, r2, r4))
    return n1, n2, n2, n4


def grunsky_identity_residual(b1, b2, b3, b4):
    """Frobenius norms of the four block relations among the truncated
    N x N blocks b1, b2, b3, b4 (N = len(b1)), on their leading
    floor(N/2) x floor(N/2) block.

    Every inner sum stops at N, so this measures the relations of the
    truncated blocks, not of the operators: the rows of the operators reach
    far past N for an eccentric curve, and what is missing shows up here as
    truncation error. It is what ``weldlab grunsky`` reports as
    ``relation_residuals``. ``grunsky_operator_residual`` measures the
    operator relations. N < 2 leaves no block to measure and raises
    InvalidInput.
    """
    n = len(b1)
    if n < 2:
        raise InvalidInput(f"block relations need N >= 2 (N = {n} "
                           "leaves an empty leading floor(N/2) block)")
    return _relation_norms(b1, b2, b3, b4, n // 2)


# the panel columns past half the inner depth bound the unsummed columns
# past it, which on geometrically decaying rows are smaller still; unsummed
# row tails of Frobenius norm tau move each relation block by at most
# 2 tau^2 (Cauchy-Schwarz), so 1e-7 keeps them below the roundoff of the
# unit-scale relations
_TAIL_NORM_MAX = 1e-7
_MIN_INNER_DEPTH = 128
_MAX_INNER_DEPTH = 1 << 15


def grunsky_operator_residual(pair: WeldingPair, h: int):
    """Frobenius norms of the four block relations of the operators of a
    pair on their leading h x h block.

    Each inner sum sum_k b[m, k] conj(b[n, k]) runs over the h x K row
    panels of the four blocks. The depth K starts at the next power of two
    >= max(128, 2h, twice the longer series) and doubles until the panel
    entries past K/2 carry Frobenius norm <= 1e-7 in every block; analytic
    rows decay geometrically, so the columns past K then add less than
    roundoff to any relation. A series that is not resolved must hold every
    coefficient the depth reads (InvalidInput otherwise); a tail that
    has not decayed by depth 2^15 raises NumericalFailure.
    """
    if not isinstance(pair, WeldingPair):
        raise InvalidInput("operator relations need a WeldingPair")
    if int(h) != h or h < 1:
        raise InvalidInput("leading block size must be a positive integer")
    h = int(h)
    f, g = pair.interior, pair.exterior
    longest = max(f.order, g.order)
    depth = 1 << int(np.ceil(np.log2(max(_MIN_INNER_DEPTH, 2 * h, 2 * longest))))
    while True:
        b1 = build_b1(f, h, depth)
        b4 = build_b4(g, h, depth)
        b2, b3 = build_b2_b3(f, g, h, depth)
        panels = (b1, b2, b3, b4)
        tail = max(float(np.linalg.norm(b[:, depth // 2:])) for b in panels)
        if tail <= _TAIL_NORM_MAX:
            return _relation_norms(*panels, h)
        if depth >= _MAX_INNER_DEPTH:
            raise NumericalFailure(
                f"operator rows have not decayed at inner depth {depth}: "
                f"tail norm {tail:.2e} > {_TAIL_NORM_MAX:.0e}")
        depth *= 2


def spectral_norm(b: np.ndarray) -> float:
    return float(np.linalg.norm(b, 2))


# the built b1 and b4 are symmetric to roundoff (|b - b^T| <= 5e-16 of
# max(1, |b|) for the c = 0.5 ellipse at N = 1280); a larger gap is not a
# block of a symmetric kernel
_SYMMETRY_TOL = 1e-12


def _ldl_defects(a: np.ndarray):
    """Pivot defects (e, u) of the LDL^T factorizations of I + a, for a
    real symmetric a or a stack of them (shape (..., n, n)), which it
    overwrites; only the lower triangles are read.

    Pivot k is 1 + e_k with e_k = a_kk + u_k, where u_k is the update the
    earlier pivots leave on the diagonal. Both come from one LAPACK
    Cholesky factor L of I + a (one call for the whole stack): pivot k is
    L_kk^2, and u_k is -sum_{j<k} L_kj^2, read off the strict lower
    triangle, so the 1 is never added to e_k or u_k and both keep their
    relative digits far below one. A pivot that is not positive (or a
    NaN, which LAPACK lets through) raises NumericalFailure.
    """
    diag = np.arange(a.shape[-1])
    entries = a[..., diag, diag]
    a[..., diag, diag] += 1.0
    try:
        low = np.linalg.cholesky(a)
        certified = np.isfinite(low[..., diag, diag]).all()
    except np.linalg.LinAlgError:
        certified = False
    if not certified:
        raise NumericalFailure(
            "a pivot of the determinant's factorization is not "
            "positive: a truncated block is not a contraction")
    low[..., diag, diag] = 0.0
    low *= low
    u = 0.0 - low.sum(axis=-1)  # an empty sum gives +0, not -0
    return entries + u, u


def _pivot_defects(b: np.ndarray, group: np.ndarray):
    """The defects (e-, u-, e+, u+) of the two pivots of each index of the
    orbits ``group`` (one per row, ``_orbits``) of a symmetric block b: of
    I - B and I + B for a real b, of the interleaved rows of I - S for the
    real embedding S of a complex one, each factored as one stack. A real
    b's stack is gathered anew for each sign and factored in place, so
    only one is held at a time."""
    rows, cols = group[:, :, None], group[:, None, :]
    if np.iscomplexobj(b):
        sub, n = b[rows, cols], group.shape[1]
        s = np.empty((len(group), 2 * n, 2 * n))
        s[:, 0::2, 0::2] = -sub.real
        s[:, 1::2, 1::2] = sub.real
        s[:, 0::2, 1::2] = s[:, 1::2, 0::2] = -sub.imag
        del sub
        e, u = _ldl_defects(s)
        return e[:, 0::2], u[:, 0::2], e[:, 1::2], u[:, 1::2]

    def factored(sign):
        a = b[rows, cols].astype(float, copy=False)
        return _ldl_defects(np.multiply(a, sign, out=a))

    return (*factored(-1.0), *factored(1.0))


def _orbits(m: int, order: int):
    """The symmetry orbits of the indices 1..m of a block whose entries
    b_mn vanish off the classes of its signed ``order`` (``_class_order``
    with first index 1), grouped by size: for each size s, ascending, an
    array of the orbits of s indices, one row each, in index order.

    For order k > 0 (m + n = 0 mod k) the class a of an index is coupled
    only to the class -a, so the orbits are {a, -a mod k}; for order -k
    (m - n = 0 mod k) each class is its own orbit; for order 0 (a diagonal
    block) each index is.
    """
    index = np.arange(1, m + 1)
    if order > 0:
        label = np.minimum(index % order, -index % order)
    else:
        label = index % -order if order else index - 1
    members = np.argsort(label, kind="stable")
    sizes = np.bincount(label)
    starts = np.cumsum(sizes) - sizes
    for s in sorted(set(sizes[sizes > 0].tolist())):
        yield members[starts[sizes == s][:, None] + np.arange(s)]


def _asymmetry(b: np.ndarray):
    """(max |b - b^T|, max |b|) of a square b, by row blocks of at most
    ``_ROW_BLOCK`` entries; a NaN entry makes both NaN."""
    step = max(1, _ROW_BLOCK // len(b))
    gaps, sizes = [], []
    for i in range(0, len(b), step):
        rows = b[i:i + step]
        gaps.append(np.abs(rows - b[:, i:i + step].T).max())
        sizes.append(np.abs(rows).max())
    return float(np.max(gaps)), float(np.max(sizes))


def logdet_potential(b: np.ndarray, orders) -> ConvergenceReport:
    """log det(I - B_n B_n*) over leading blocks B_n, n in ``orders``, of a
    symmetric block b (b = b^T, as b1 and b4 are by the kernel symmetry).

    The factorization at m = max(orders) gives every order n <= m. A real
    b has det(I - B_n^2) = det(I - B_n) det(I + B_n), so the pivots of
    I - B and I + B (``_ldl_defects`` of -b and +b) pair up. A complex
    b = X + iY is embedded as the real symmetric S = [[X, Y], [Y, -X]] with
    its two bases interleaved: the eigenvalues of S are +-sigma_j(B), and
    its leading 2n section embeds B_n, so the pivots of I - S pair up at
    positions 2j, 2j + 1. Either way index j has two pivots 1 + e-, 1 + e+
    whose diagonal entries -+b_jj cancel exactly, and
    log det(I - B_n B_n*) is the cumulative sum over j <= n of
    log1p(u- + u+ + e- e+), which keeps the digits of a potential far below
    one in magnitude.

    The classes of b are read off its exact zeros
    (``series._class_order``). A k-fold block, whose entries b_mn are
    exactly 0 unless m + n = 0 (mod k), couples the residue class a of its
    indices only to the class -a: I -+ B, and S, are block diagonal over
    the orbits {a, -a mod k}. A block whose entries vanish unless
    m - n = 0 (mod k) couples each class only to itself, and a diagonal
    block (the exterior block of an ellipse) each index only to itself.
    Each orbit is factored on its own, in index order, and orbits of
    equal size are stacked into one LAPACK call; the leading sections of
    an orbit are those of b's, so its pivots are b's pivots at its
    indices, written back there before the sum. For the 2-fold c = 0.5
    ellipse's b1 at m = 1280 that is one stacked factorization of two
    640 x 640 matrices per sign, about 0.05 s where one of 1280 took
    0.12 s; its diagonal b4 at 960 is one stack of 960 1 x 1 pivots per
    sign. With k = 1 there is one orbit, the whole block. The symmetry
    check and the scale it is read against run by row blocks, so no
    full-size temporary is formed, and each sign's stack is gathered anew
    and factored in place: 12.6 MiB traced for b1 at 1280. The
    certificate is that every pivot is positive,
    which is sigma_max(B_n) < 1 for every n <= m; a block without it raises
    NumericalFailure. A non-square b, or one not symmetric beyond
    roundoff, raises InvalidInput.
    """
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise InvalidInput(f"the determinant needs a square block, got shape {b.shape}")
    orders = [int(n) for n in orders]
    if not orders or any(n < 1 or n > b.shape[0] for n in orders):
        raise InvalidInput("orders must be one or more orders in [1, N]")
    m = max(orders)
    bm = b[:m, :m]
    gap, scale = _asymmetry(bm)
    if gap > _SYMMETRY_TOL * max(1.0, scale):
        raise InvalidInput("the determinant needs a symmetric block (b = b^T)")
    pivots = np.empty((4, m))
    for group in _orbits(m, _class_order(bm, 1)):
        pivots[:, group.ravel()] = np.reshape(_pivot_defects(bm, group), (4, -1))
    e_minus, u_minus, e_plus, u_plus = pivots
    curve = np.cumsum(np.log1p(u_minus + u_plus + e_minus * e_plus))
    return ConvergenceReport(orders, curve[np.array(orders) - 1])


ROUTES = {"b1": "interior", "b4": "exterior"}  # the side each block reads


def potential(h: ComplexSeries, orders,
              stage=contextlib.nullcontext) -> ConvergenceReport:
    """log det(I - B_n B_n*) over ``orders`` by the block of the map h: b1
    of an interior (Taylor) map, b4 of an exterior (Laurent) one, built at
    max(orders) under ``stage("blocks")`` and factored under
    ``stage("determinant")``. The builder is read by name on each call, so
    a wrapper set on the module's ``build_b1`` or ``build_b4`` sees it."""
    taylor = getattr(h, "kind", None) is Kind.TAYLOR_AT_ZERO
    with stage("blocks"):
        b = (build_b1 if taylor else build_b4)(h, max(orders, default=0))
    with stage("determinant"):
        return logdet_potential(b, orders)


def inversion_check(pair: WeldingPair, n: int, n_inverted: int = None,
                    stage=contextlib.nullcontext) -> dict:
    """The ``invert`` report body: the ``potential`` of the pair through its
    interior block (``s2_pair_b1``), of the reflected curve through the
    block of its one map, the reflection of g by ``maps.one_map``
    (``s2_inverted_b1``), and of the pair through the exterior block
    (``s2_pair_b4``), which invariance under inversion makes agree in the
    limit, with ``symmetry_gap`` = |s2_pair_b1 - s2_inverted_b1| and
    ``route_gap`` = |s2_pair_b1 - s2_pair_b4|. ``stage`` is entered as
    "reflection" and passed to each ``potential``."""
    with stage("reflection"):
        reflected = one_map(inverted_domain(pair.curve), "interior",
                            inverted_series(pair.exterior))
    v1, v2, v4 = (potential(h, [m], stage).extrapolated for h, m in (
        (pair.interior, n), (reflected, n_inverted or n), (pair.exterior, n)))
    return {"s2_pair_b1": v1, "s2_inverted_b1": v2, "s2_pair_b4": v4,
            "symmetry_gap": abs(v1 - v2), "route_gap": abs(v1 - v4)}


# ---------------------------------------------------------------------------
# CSV export of matrices
# ---------------------------------------------------------------------------

def matrix_to_csv(b: np.ndarray) -> str:
    """Row-major CSV with a header row and 17 significant digits per field.
    A complex block gives each entry adjacent columns c{j}_re, c{j}_im; a
    real block gives one column c{j}_re per entry."""
    parts = (b.real, b.imag) if np.iscomplexobj(b) else (b,)
    suffixes = ("_re", "_im")[:len(parts)]
    header = ",".join(f"c{j}{sfx}" for j in range(b.shape[1]) for sfx in suffixes)
    cells = np.stack(parts, axis=-1).reshape(b.shape[0], -1)
    lines = [header] + [",".join(f"{x:.17g}" for x in row) for row in cells]
    return "\n".join(lines) + "\n"
