"""Periodic grids on the flat complex torus C^n / (Z^n + i Z^n) and spectral calculus.

Conventions
-----------
Complex coordinates z^j = x_j + i y_j with unit periods. Real coordinates are
stored interleaved: array axis 2j samples x_{j+1}, axis 2j+1 samples y_{j+1},
so a field is an ndarray of shape ``grid.shape`` with len == 2n.

Wirtinger derivatives:

    d_holo     = (d/dx_j - i d/dy_j) / 2
    d_antiholo = (d/dx_j + i d/dy_j) / 2

Derivatives are Fourier multipliers (exact for band-limited fields), read
from one cached table per grid (``spectral_table``); every operator
transforms once over the active axes, multiplies and transforms back, on
half spectra for real fields. A field constant along a coordinate may be
stored with size 1 on that axis (reduced ansatz); derivatives along such
axes are exactly zero. The FFT thread count (``set_fft_workers``) is the one
process-wide setting; it changes no result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import product as _iterproduct

import numpy as np
import scipy.fft

from . import hermitian as ha
from .errors import ValidationError

# cap on the total node count accepted by TorusGrid (memory guard: ~2.4 GiB
# for one complex 3x3 matrix field)
MAX_NODES = 2 ** 24
_FFT_WORKERS = 1  # scipy.fft workers; -1 means all available cores


def set_fft_workers(workers):
    """Thread count for every FFT (scipy.fft workers, default 1); -1 uses all
    cores."""
    global _FFT_WORKERS
    _FFT_WORKERS = int(workers)


@dataclass(frozen=True)
class TorusGrid:
    """Discretization of the torus: complex dimension n and 2n axis sizes.

    sizes[2j], sizes[2j+1] are the node counts along x_{j+1}, y_{j+1}.
    Active axes (size > 1) must be powers of two >= 4.
    """

    n: int
    sizes: tuple = field(default=())

    def __post_init__(self):
        if not 2 <= self.n <= 4:
            raise ValidationError(f"complex dimension must be in [2, 4], got {self.n}")
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) != 2 * self.n:
            raise ValidationError(
                f"need {2 * self.n} axis sizes for n={self.n}, got {len(sizes)}"
            )
        for s in sizes:
            if s != 1 and (s < 4 or s & (s - 1)):
                raise ValidationError(f"active axis sizes must be powers of two >= 4, got {s}")
        total = math.prod(sizes)
        if total > MAX_NODES:
            raise ValidationError(f"grid holds {total} nodes, above the budget {MAX_NODES}")
        object.__setattr__(self, "sizes", sizes)

    @classmethod
    def reduced(cls, n, size, active_coords=None):
        """Grid resolving only the listed real coordinates (default: x_1..x_n)."""
        if active_coords is None:
            active_coords = tuple(2 * j for j in range(n))
        sizes = [1] * (2 * n)
        for a in active_coords:
            sizes[a] = size
        return cls(n, tuple(sizes))

    @classmethod
    def default(cls, n):
        """Desk-scale default: 32 per active coordinate for n = 2 (two active),
        16 with three active coordinates for n = 3, 8 with two for n = 4."""
        size, count = {2: (32, 2), 3: (16, 3), 4: (8, 2)}[n]
        return cls.reduced(n, size, active_coords=tuple(2 * j for j in range(count)))

    @property
    def shape(self):
        return self.sizes

    @property
    def num_nodes(self):
        return math.prod(self.sizes)

    @property
    def active_axes(self):
        return tuple(a for a, s in enumerate(self.sizes) if s > 1)

    @property
    def active_mask(self):
        return tuple(1 if s > 1 else 0 for s in self.sizes)

    @property
    def cell_volume(self):
        return 1.0 / self.num_nodes

    def axis_coordinates(self, axis):
        pts = np.arange(self.sizes[axis]) / self.sizes[axis]
        shape = [1] * (2 * self.n)
        shape[axis] = self.sizes[axis]
        return pts.reshape(shape)

    def coordinate(self, axis):
        """Coordinate values broadcast over the full grid shape."""
        return np.broadcast_to(self.axis_coordinates(axis), self.sizes)

    def refined(self, factor=2):
        """Same grid with every active axis refined by an integer factor."""
        return TorusGrid(self.n, tuple(s if s == 1 else s * factor for s in self.sizes))

    def coarsened(self, factor=2):
        """Same grid with every active axis coarsened by an integer factor."""
        return TorusGrid(self.n, tuple(s if s == 1 else s // factor for s in self.sizes))

    def zeros(self, *extra):
        return np.zeros(self.sizes + tuple(extra), dtype=np.complex128)

    def check_field(self, f, extra_shape=()):
        want = self.sizes + tuple(extra_shape)
        if f.shape != want:
            raise ValidationError(f"field shape {f.shape} does not match grid shape {want}")


# ---------------------------------------------------------------------------
# transforms over the active axes (all FFTs of torma go through these)


def fftn(grid, f, axes=None):
    """Full spectrum of a field over the given active axes (default: all)."""
    axes = grid.active_axes if axes is None else axes
    if not axes:
        return np.array(f, dtype=np.complex128)
    return scipy.fft.fftn(f, axes=axes, workers=_FFT_WORKERS)


def ifftn(grid, fh, axes=None):
    """Inverse of :func:`fftn` over the same axes."""
    axes = grid.active_axes if axes is None else axes
    if not axes:
        return np.array(fh, dtype=np.complex128)
    return scipy.fft.ifftn(fh, axes=axes, workers=_FFT_WORKERS)


def rfftn(grid, f, axes=None):
    """Half spectrum of a real field over the given active axes (default: all);
    the last of them keeps size//2 + 1 modes."""
    axes = grid.active_axes if axes is None else axes
    if not axes:
        return np.array(f, dtype=np.complex128)
    return scipy.fft.rfftn(f, axes=axes, workers=_FFT_WORKERS)


def irfftn(grid, fh, axes=None):
    """Real field of a half spectrum (inverse of :func:`rfftn` over the same axes)."""
    axes = grid.active_axes if axes is None else axes
    if not axes:
        return np.array(fh.real, dtype=np.float64)
    shape = [grid.sizes[a] for a in axes]
    return scipy.fft.irfftn(fh, s=shape, axes=axes, workers=_FFT_WORKERS)


def _irfftn_products(grid, mults, fh, axes=None):
    """Real fields of mult * fh for every multiplier in mults, stacked on a
    new leading axis: one inverse transform over the active axes (default:
    all) for all of them. Each mult broadcasts against the half spectrum fh."""
    axes = grid.active_axes if axes is None else axes
    stack = np.empty((len(mults),) + fh.shape, dtype=np.complex128)
    for k, mult in enumerate(mults):
        np.multiply(mult, fh, out=stack[k])
    if not axes:
        return stack.real.copy()
    return scipy.fft.irfftn(stack, s=[grid.sizes[a] for a in axes],
                            axes=[a + 1 for a in axes], overwrite_x=True,
                            workers=_FFT_WORKERS)


def _rfftn_products(grid, fields, f):
    """Half spectra of field * f for every real field in fields, stacked on a
    new leading axis: one forward transform over the active axes for all of
    them (the forward counterpart of :func:`_irfftn_products`)."""
    stack = np.empty((len(fields),) + np.shape(f))
    for k, a in enumerate(fields):
        np.multiply(a, f, out=stack[k])
    if not grid.active_axes:
        return stack.astype(np.complex128)
    return scipy.fft.rfftn(stack, axes=[a + 1 for a in grid.active_axes],
                           overwrite_x=True, workers=_FFT_WORKERS)


class SpectralTable:
    """Fourier multipliers of one grid.

    Along real axis a, d/dx_a is the multiplier i s_a(k) with s_a real, odd
    and zero at Nyquist (``axis_symbol``); an inactive axis has s_a = 0. For
    coordinate j with sx = s_{2j}, sy = s_{2j+1}:

        d_holo     = (i sx + sy)/2        d_antiholo = (i sx - sy)/2
        d_i d_jbar = hol_i antih_j = re[i][j] + i im[i][j],
        re[i][j] = -(sx_i sx_j + sy_i sy_j)/4,  im[i][j] = (sy_i sx_j - sx_i sy_j)/4.

    ``re``/``im`` are real and even, so they map real fields to real fields
    and act on half spectra; ``im[i][j]`` is None where it vanishes (i == j,
    or both y-axes inactive). ``axis[a]`` holds s_a along its own axis of the
    full spectrum (:func:`fftn`); ``half`` cuts it to the layout of
    :func:`rfftn`, and ``axis_half``, ``re`` and ``im`` broadcast against
    :func:`rfftn` output over all active axes.
    """

    @staticmethod
    def axis_symbol(size):
        """s(k) = 2 pi k along one axis of the given size, zero at Nyquist
        (that mode has no well-defined odd derivative)."""
        s = 2.0 * np.pi * np.fft.fftfreq(size, d=1.0 / size)
        s[size // 2] = 0.0
        return s

    def __init__(self, grid):
        n = grid.n
        self.axis = []
        for a, size in enumerate(grid.sizes):
            shape = [1] * (2 * n)
            if size > 1:
                shape[a] = size
                self.axis.append(self.axis_symbol(size).reshape(shape))
            else:
                self.axis.append(np.zeros(shape))
            # the cache hands the same arrays to every caller
            self.axis[-1].setflags(write=False)
        last = grid.active_axes[-1] if grid.active_axes else None
        self.axis_half = [self.half(a, last) for a in range(2 * n)]
        self.half_shape = tuple(
            size // 2 + 1 if a == last else size for a, size in enumerate(grid.sizes)
        )
        self.live = tuple(j for j in range(n) if grid.sizes[2 * j] > 1 or grid.sizes[2 * j + 1] > 1)
        self.y_live = tuple(j for j in range(n) if grid.sizes[2 * j + 1] > 1)
        sx, sy = self.axis_half[0::2], self.axis_half[1::2]
        self.re = [[-0.25 * (sx[i] * sx[j] + sy[i] * sy[j]) for j in range(n)] for i in range(n)]
        self.im = [
            [0.25 * (sy[i] * sx[j] - sx[i] * sy[j])
             if i != j and (i in self.y_live or j in self.y_live) else None
             for j in range(n)]
            for i in range(n)
        ]
        for arr in [m for row in self.re + self.im for m in row if m is not None]:
            arr.setflags(write=False)

    def half(self, a, half_axis):
        """``axis[a]`` in the layout of :func:`rfftn` over axes ending at half_axis."""
        s = self.axis[a]
        if a != half_axis:
            return s
        cut = [slice(None)] * s.ndim
        cut[a] = slice(0, s.shape[a] // 2 + 1)
        return s[tuple(cut)]

    def pairs(self):
        """Upper-triangle (i, j) with both coordinates live."""
        return [(i, j) for i in self.live for j in self.live if i <= j]


@functools.lru_cache(maxsize=16)  # bounded: a few grids are live in any one process
def spectral_table(grid):
    """The grid's cached multiplier table."""
    return SpectralTable(grid)


def _real_parts(f):
    """[(Re f, 1), (Im f, 1j)] with the imaginary part left out when it is zero."""
    f = np.asarray(f)
    if not np.iscomplexobj(f):
        return [(f, 1.0)]
    parts = [(f.real, 1.0)]
    if np.any(f.imag):
        parts.append((f.imag, 1j))
    return parts


def _first_order(grid, f, combos):
    """sum_a c_a d/dx_a f for each combination [(a, c_a), ...] in combos.

    One forward transform over the active axes the combinations use. A real f
    goes through the half spectrum with one inverse transform for all its
    real derivatives; a complex f (matrix fields of metrics) through the full
    spectrum with one inverse per combination, which is cheaper than
    transforming its real and imaginary parts apart. f may carry trailing
    matrix axes.
    """
    tab = spectral_table(grid)
    f = np.asarray(f)
    combos = [[(a, c) for a, c in combo if grid.sizes[a] > 1] for combo in combos]
    axes = tuple(sorted({a for combo in combos for a, _ in combo}))
    trailing = (1,) * (f.ndim - 2 * grid.n)

    def symbol(s):
        return 1j * s.reshape(s.shape + trailing)

    if not axes:
        return [np.zeros(f.shape, dtype=np.complex128) for _ in combos]
    if np.iscomplexobj(f):
        fh = fftn(grid, f, axes)
        out = []
        for k, combo in enumerate(combos):
            if not combo:
                out.append(np.zeros(f.shape, dtype=np.complex128))
                continue
            mult = sum(c * symbol(tab.axis[a]) for a, c in combo)
            # the last combination multiplies fh in place
            fh_k = fh * mult if k < len(combos) - 1 else np.multiply(fh, mult, out=fh)
            out.append(ifftn(grid, fh_k, axes))
        return out
    fh = rfftn(grid, f, axes)
    mults = [symbol(tab.half(a, axes[-1])) for a in axes]
    derivs = dict(zip(axes, _irfftn_products(grid, mults, fh, axes)))
    out = [np.zeros(f.shape, dtype=np.complex128) for _ in combos]
    for k, combo in enumerate(combos):
        for a, c in combo:
            out[k] += c * derivs[a]
    return out


def _holo_combo(j, anti=False):
    """d/dz^j = (d/dx_j - i d/dy_j)/2; d/dzbar^j with the opposite sign."""
    return [(2 * j, 0.5), (2 * j + 1, 0.5j if anti else -0.5j)]


def _check_coordinate(grid, i):
    if not 0 <= i < grid.n:
        raise ValidationError(f"coordinate index {i} out of range for n={grid.n}")


def d_holo(grid, f, i):
    """Holomorphic derivative d/dz^i (0-based i)."""
    _check_coordinate(grid, i)
    return _first_order(grid, f, [_holo_combo(i)])[0]


def d_antiholo(grid, f, i):
    """Antiholomorphic derivative d/dzbar^i (0-based i)."""
    _check_coordinate(grid, i)
    return _first_order(grid, f, [_holo_combo(i, anti=True)])[0]


def holo_gradient(grid, f):
    """All d/dz^i on a trailing axis: shape grid.shape + (n,), the view of one
    (n, *nodes) buffer, so each component is a contiguous node field.

    One forward transform for all coordinates.
    """
    return np.moveaxis(np.stack(_first_order(grid, f, [_holo_combo(j) for j in range(grid.n)])),
                       0, -1)


def wirtinger_symbols(grid, anti=False):
    """Full-spectrum multipliers of d/dz^j (d/dzbar^j with anti) for j < n,
    as used by d_holo/d_antiholo: they broadcast against the trailing node
    axes of :func:`fftn` output, and vanish for a coordinate the grid does
    not resolve."""
    tab = spectral_table(grid)
    return [sum(c * 1j * tab.axis[a] for a, c in _holo_combo(j, anti)) for j in range(grid.n)]


def hessian_parts(grid, u):
    """Real fields of the mixed Hessian u_{i jbar} of a real field u: one
    (i, j, re, im) per live upper-triangle pair i <= j of the table, with
    u_{i jbar} = re + i im and im None where the symbol has no imaginary
    part; every other entry of the upper triangle is zero, and the lower
    triangle is u_{j ibar} = conj(u_{i jbar}).

    One half-spectrum transform and one batched inverse transform for all
    of them.
    """
    tab = spectral_table(grid)
    pairs = tab.pairs()
    imag = [(i, j) for i, j in pairs if tab.im[i][j] is not None]
    mults = [tab.re[i][j] for i, j in pairs] + [tab.im[i][j] for i, j in imag]
    fields = _irfftn_products(grid, mults, rfftn(grid, u))
    im = dict(zip(imag, fields[len(pairs):]))
    return [(i, j, re, im.get((i, j))) for (i, j), re in zip(pairs, fields)]


def hessian_trace(gi, parts):
    """tr(g^{-1} Hess u) = g^{i jbar} u_{i jbar}, a real field, from the
    entrywise (n, n, *nodes) Hermitian g^{-1} and :func:`hessian_parts`."""
    out = 0.0
    for i, j, re, im in parts:
        if i == j:
            out = out + gi[i, i].real * re
            continue
        # g^{j ibar} u_{i jbar} + its conjugate
        term = gi[i, j].real * re
        if im is not None:
            term += gi[i, j].imag * im
        out = out + 2.0 * term
    return out


def hessian_complex(grid, u):
    """Mixed complex Hessian u_{i jbar} = d_i d_jbar u, shape grid.shape + (n, n).

    The entries of :func:`hessian_parts`, with hess[j, i] = conj(hess[i, j]).
    Complex u is H(Re u) + i H(Im u).
    """
    n = grid.n
    hess = grid.zeros(n, n)
    for part, unit in _real_parts(u):
        for i, j, re, im in hessian_parts(grid, part):
            entry = re if im is None else re + 1j * im
            hess[..., i, j] += unit * entry
            if i != j:
                hess[..., j, i] += unit * np.conj(entry)
    return hess


def _real_field(x):
    """x as its own contiguous array, so that it pins no complex parent."""
    return np.array(x, dtype=np.float64, order="C")


class SecondOrderOperator:
    """L v = Re[sum_ij coeff_ij v_{j ibar} + sum_p a_p d_p v] on real fields, a = first_order.

    Holds L as real coefficient fields against real operators with real
    symbols, one set per live pair i <= j (hess[j, i] = conj(hess[i, j])):

        L v = sum_{i<=j} [A_ij Re(v_{i jbar}) + B_ij Im(v_{i jbar})]
              + sum_p [Re(a_p) d_x v + Im(a_p) d_y v]/2,

    A_ii = Re C_ii, A_ij = Re(C_ij + C_ji), B_ij = Im(C_ij - C_ji), with
    d_x, d_y the real derivatives of coordinate p. ``second`` holds
    (i, j, A_ij, B_ij) for every pair of ``SpectralTable.pairs`` (B_ij None
    where ``im[i][j]`` is), ``first`` (p, Re(a_p)/2, Im(a_p)/2) for every
    live p (the second None unless p's y-axis is active);
    :meth:`from_coefficients` derives both from C and a. ``apply_spectrum``
    takes the half spectrum of v and makes one inverse transform for all
    real operators; ``transpose_spectrum`` (under the pairing sum(a * b))
    one forward transform for all of them and returns a half spectrum, since
    the second-order symbols are even and the first-order ones odd
    (``transpose`` adds the inverse transform). The multipliers come from
    the grid's table at call time.
    """

    def __init__(self, grid, second, first=()):
        self.grid = grid
        self.second = list(second)
        self.first = list(first)

    @classmethod
    def from_coefficients(cls, grid, coeff, first_order=None):
        """The operator of the complex coefficient fields C (..., n, n) and
        a (..., n), or of constant matrices."""
        tab = spectral_table(grid)
        second = []
        for i, j in tab.pairs():
            if i == j:
                second.append((i, j, _real_field(coeff[..., i, i].real), None))
                continue
            a = _real_field((coeff[..., i, j] + coeff[..., j, i]).real)
            b = (_real_field((coeff[..., i, j] - coeff[..., j, i]).imag)
                 if tab.im[i][j] is not None else None)
            second.append((i, j, a, b))
        first = []
        if first_order is not None:
            for p in tab.live:
                a = 0.5 * first_order[..., p]
                first.append((p, _real_field(a.real),
                              _real_field(a.imag) if p in tab.y_live else None))
        return cls(grid, second, first)

    def _terms(self):
        """(real coefficient field, half-spectrum multiplier) of each term of L."""
        tab = spectral_table(self.grid)
        for i, j, a, b in self.second:
            yield a, tab.re[i][j]
            if b is not None:
                yield b, tab.im[i][j]
        for p, a, b in self.first:
            yield a, 1j * tab.axis_half[2 * p]
            if b is not None:
                yield b, 1j * tab.axis_half[2 * p + 1]

    def symbol(self):
        """Half-spectrum symbol of L for constant coefficients (real without first order)."""
        return sum(a * mult for a, mult in self._terms())

    def apply_spectrum(self, vh):
        """L v for the real field v with half spectrum vh (:func:`rfftn`)."""
        terms = list(self._terms())
        fields = _irfftn_products(self.grid, [mult for _, mult in terms], vh)
        out = np.zeros(self.grid.sizes)
        for (a, _), field in zip(terms, fields):
            out += a * field
        return out

    def transpose_spectrum(self, t):
        """Half spectrum (:func:`rfftn`) of L^T t for a real field t.

        Each multiplier is real and even or imaginary and odd, so the
        transpose of its term under sum(a * b) has the conjugate multiplier.
        """
        terms = list(self._terms())
        spectra = _rfftn_products(self.grid, [a for a, _ in terms], t)
        acc = np.zeros(spectral_table(self.grid).half_shape, dtype=np.complex128)
        for (_, mult), spectrum in zip(terms, spectra):
            acc += np.conj(mult) * spectrum
        return acc

    def transpose(self, t):
        """L^T t for a real field t."""
        return irfftn(self.grid, self.transpose_spectrum(t))


def laplacian(grid, gi, u):
    """Metric Laplacian g^{i jbar} u_{i jbar} from gi = g^{-1} (MetricFields.gi)."""
    return np.einsum("...ij,...ji->...", gi, hessian_complex(grid, u))


def mean(grid, f):
    """Grid average (uniform measure; the flat torus has unit volume)."""
    return complex(np.mean(f)) if np.iscomplexobj(f) else float(np.mean(f))


def sup_norm(f):
    return float(np.max(np.abs(f)))


def grad_norm_sq(grid, gi, f):
    """|grad f|^2_g = g^{i jbar} f_i conj(f_j), a real field, from gi = g^{-1}."""
    df = holo_gradient(grid, f)
    return np.einsum("...j,...ji,...i->...", np.conj(df), gi, df).real


def log_det_weights(grid, log_det):
    """Discrete weights so that sum(f * weights) approximates int f omega^n,
    from the field log det g of the metric.

    omega^n = n! det(g) (2 dx dy)^n on the unit torus, hence the 2^n n! factor.
    """
    return np.exp(log_det) * (2.0 ** grid.n) * float(math.factorial(grid.n)) * grid.cell_volume


def volume_weights(grid, g):
    """:func:`log_det_weights` of a positive field g, factored here (no torma module calls it)."""
    return log_det_weights(grid, ha.log_det(ha.require_positive(g)))


def _nyquist_cut(grid, axis):
    """Index of the Nyquist plane along an active axis, in full or half spectra."""
    cut = [slice(None)] * len(grid.sizes)
    cut[axis] = grid.sizes[axis] // 2
    return tuple(cut)


@functools.lru_cache(maxsize=16)  # bounded, as spectral_table
def resolved_weights(grid):
    """Parseval weights w of the half spectrum and 1/w (0 where w is 0).

    w = sqrt(c / num_nodes), c = 1 on the k = 0 plane of the last active axis
    (whose modes :func:`rfftn` holds once), 2 elsewhere (a mode and its
    conjugate) and 0 on every mode with a Nyquist index. The real view of
    w * rfftn(v) thus has the 2-norm and inner products of the real field v
    with its Nyquist modes dropped (:func:`drop_nyquist`).
    """
    axes = grid.active_axes
    c = np.ones(spectral_table(grid).half_shape)
    if axes:
        cut = [slice(None)] * len(grid.sizes)
        cut[axes[-1]] = slice(1, None)
        c[tuple(cut)] = 2.0
    for axis in axes:
        c[_nyquist_cut(grid, axis)] = 0.0
    w = np.sqrt(c / grid.num_nodes)
    w_inv = np.divide(1.0, w, out=np.zeros_like(w), where=w > 0.0)
    for arr in (w, w_inv):
        arr.setflags(write=False)
    return w, w_inv


def drop_nyquist(grid, f):
    """Project out all modes carrying a Nyquist index on any active axis.

    The spectral first derivative annihilates those modes (odd multiplier), so
    they are invisible to the solver's Jacobian; iterative solves work in this
    resolved subspace. Real input gives real output.
    """
    out = 0.0
    for part, unit in _real_parts(f):
        fh = rfftn(grid, part)
        for axis in grid.active_axes:
            fh[_nyquist_cut(grid, axis)] = 0.0
        out = out + unit * irfftn(grid, fh)
    return out


def _resample_blocks(s_in, s_out, mirrored):
    """(source, destination) slices of one active axis of a full spectrum.

    The modes |k| < m/2, m = min(s_in, s_out), keep their wavenumber, and so
    does the -m/2 mode, or the +m/2 mode when mirrored (on the coarser grid
    both are its Nyquist mode).
    """
    half = min(s_in, s_out) // 2
    if mirrored:
        return [(slice(0, half + 1), slice(0, half + 1)),
                (slice(s_in - half + 1, s_in), slice(s_out - half + 1, s_out))]
    return [(slice(0, half), slice(0, half)),
            (slice(s_in - half, s_in), slice(s_out - half, s_out))]


def _copy_blocks(src, dst, blocks, scale=1.0):
    """dst[b] += scale * src[a] for every combination of the per-axis blocks."""
    for combo in _iterproduct(*blocks):
        dst[tuple(d for _, d in combo)] += scale * src[tuple(a for a, _ in combo)]


def resample(grid, f, out_grid):
    """Spectral resample of a real field between grids (zero-pad to refine,
    truncate to coarsen).

    Supports the 3/2-rule dealiasing workflow: evaluate products on a finer
    grid, truncate back. Inactive axes must match; active axes may differ.
    Along each active axis the modes |k| < m/2 (m the smaller size) are
    kept and the -m/2 mode goes to -m/2; the result is the real part of
    that field, computed on half spectra: there each Nyquist block is the
    mean of the -m/2 and the mirrored +m/2 placement, except on the last
    active axis's own Nyquist plane when it coarsens, which holds the +m/2
    modes alone (the inverse transform takes the real part of that plane).
    Raises ValidationError for complex f.
    """
    if out_grid.n != grid.n:
        raise ValidationError("resample requires equal complex dimension")
    for s_in, s_out in zip(grid.sizes, out_grid.sizes):
        if (s_in == 1) != (s_out == 1):
            raise ValidationError("resample cannot activate or deactivate axes")
    if np.iscomplexobj(f):
        raise ValidationError("resample takes real fields; resample_hermitian takes metrics")
    if not grid.active_axes:
        return np.array(f, dtype=np.float64)
    inactive = [(slice(0, 1), slice(0, 1))]
    pairs = list(zip(grid.sizes, out_grid.sizes))
    trailing = np.shape(f)[len(grid.sizes):]
    last = grid.active_axes[-1]
    fh = rfftn(grid, f)
    out = np.zeros(spectral_table(out_grid).half_shape + trailing, dtype=np.complex128)
    for mirrored in (False, True):
        blocks = [inactive if s_in == 1 else _resample_blocks(s_in, s_out, mirrored)
                  for s_in, s_out in pairs]
        # the last axis holds k >= 0 only; equal sizes keep its Nyquist plane
        s_in, s_out = pairs[last]
        keep = blocks[last][:1]
        if s_in == s_out and not mirrored:
            keep.append((slice(s_in // 2, s_in // 2 + 1),) * 2)
        blocks[last] = keep
        _copy_blocks(fh, out, blocks, 0.5)
    if pairs[last][1] < pairs[last][0]:
        out[_nyquist_cut(out_grid, last)] *= 2.0
    out = irfftn(out_grid, out)
    out *= out_grid.num_nodes / grid.num_nodes
    return out


def resample_hermitian(grid, g, out_grid):
    """:func:`resample` of a Hermitian matrix field, made Hermitian: the real
    and imaginary parts of its upper triangle go through the real path, so
    the result is that of the complex path hermitized (ha.hermitize)."""
    n = g.shape[-1]
    rows, cols = np.triu_indices(n)
    off = rows < cols
    parts = resample(grid, np.concatenate(
        [g[..., rows, cols].real, g[..., rows[off], cols[off]].imag], axis=-1), out_grid)
    out = np.zeros(out_grid.sizes + (n, n), dtype=np.complex128)
    out[..., rows, cols] = parts[..., :len(rows)]
    out[..., rows[off], cols[off]] += 1j * parts[..., len(rows):]
    out[..., cols[off], rows[off]] = np.conj(out[..., rows[off], cols[off]])
    return out
