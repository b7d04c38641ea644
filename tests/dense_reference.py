"""Dense coordinate-tuple helpers and references for the tests.

The package passes Lie-algebra elements and coordinate vectors as sparse
{index: Scalar} maps.  The tuple helpers here build and read coordinate
tuples, and the dense bracket, ad, Jacobi check, embedding, action matrix and
restriction are the routines the sparse ones replaced, kept as oracles; the
coordinates of sl2's rotation-adapted basis have no caller in the package.
``cokernel_dim``, ``homotopy_classes_dim`` and the wide-window band
dimensions are references with no caller in the package.  The product,
column pick, transpose, block diagonal and Kronecker placer written on one
{(row, col): Scalar} map are the kernels the column-map ``Matrix`` replaced,
kept as oracles for it.  The Scalar vector-field application and Horner
evaluation are the oracles of the int-cell kernels that replaced them; the
(x1 x2)^k expansion and the quarter-turn rotation values have no caller in
the package.
"""

from fractions import Fraction

from hch.complexes import _hom_diff
from hch.gkmodules import FiniteModule
from hch.linalg import Matrix, add_into, kernel_basis, rank
from hch.scalars import I, ONE, ZERO, Scalar, as_scalar

# -- coordinate tuples ------------------------------------------------------------


def vec(entries):
    return tuple(as_scalar(x) for x in entries)


def unit_vec(n, j):
    return tuple(ONE if k == j else ZERO for k in range(n))


def vec_is_zero(v):
    return all(a.is_zero() for a in v)


def as_map(v):
    """The sparse form of a coordinate tuple."""
    return {k: x for k, x in enumerate(v) if not x.is_zero()}


def column(m, c):
    return tuple(m.entries.get((r, c), ZERO) for r in range(m.rows))


def from_columns(cols, rows=None):
    if rows is None:
        rows = len(cols[0]) if cols else 0
    return Matrix(rows, len(cols), {(i, j): v for j, col in enumerate(cols)
                                    for i, v in enumerate(col) if not v.is_zero()})


def apply(m, v):
    if len(v) != m.cols:
        raise ValueError("vector length mismatch")
    out = [ZERO] * m.rows
    for (r, c), a in m.entries.items():
        if not v[c].is_zero():
            out[r] = out[r] + a * v[c]
    return tuple(out)


# -- the dense Lie-algebra routines ----------------------------------------------


def bracket_basis(g, j, k):
    out = [ZERO] * g.dim
    if j == k:
        return tuple(out)
    if j < k:
        for l, v in g._brackets.get((j, k), {}).items():
            out[l] = v
    else:
        for l, v in g._brackets.get((k, j), {}).items():
            out[l] = -v
    return tuple(out)


def bracket(g, x, y):
    if len(x) != g.dim or len(y) != g.dim:
        raise ValueError("vector length must equal dim")
    out = [ZERO] * g.dim
    for j, a in enumerate(x):
        if a.is_zero():
            continue
        for k, b in enumerate(y):
            if b.is_zero():
                continue
            for l, c in enumerate(bracket_basis(g, j, k)):
                if not c.is_zero():
                    out[l] = out[l] + a * b * c
    return tuple(out)


def ad(g, x):
    return from_columns([bracket(g, x, unit_vec(g.dim, k)) for k in range(g.dim)], rows=g.dim)


def jacobi_violations(g):
    bad = []
    for j in range(g.dim):
        for k in range(j + 1, g.dim):
            for l in range(k + 1, g.dim):
                xj, xk, xl = (unit_vec(g.dim, m) for m in (j, k, l))
                terms = (bracket(g, xj, bracket(g, xk, xl)), bracket(g, xk, bracket(g, xl, xj)),
                         bracket(g, xl, bracket(g, xj, xk)))
                if not vec_is_zero(tuple(a + b + c for a, b, c in zip(*terms))):
                    bad.append(f"Jacobi fails on basis triple ({j},{k},{l})")
    return bad


def embed(emb, x):
    return apply(emb.alg_embed, x)


def action_matrix(M, x):
    out = Matrix.zeros(M.dim, M.dim)
    for j, a in enumerate(x):
        if not a.is_zero():
            out = out + M.g_action[j].scale(a)
    return out


def restrict_module(emb, m):
    weights = [emb.grp_embed.restrict(ch) for ch in m.k_weights]
    action = [action_matrix(m, embed(emb, unit_vec(emb.small.g.dim, j)))
              for j in range(emb.small.g.dim)]
    return FiniteModule(emb.small, weights, action)


def p_complement(pair):
    """Basis of p (dense g-basis vectors) and the projection P: h -> p, read
    from ``pair.complement``."""
    chosen, projection, _ = pair.complement
    return [unit_vec(pair.g.dim, j) for j in chosen], projection


def rotation_basis_embedding():
    """Coordinates of (u+, k0, u-) in the (e, h, f) basis, as columns."""
    return Matrix.from_rows([
        [I, -I, -I],
        [Scalar(1), Scalar(0), Scalar(1)],
        [I, I, -I],
    ])


# -- the coordinate-map matrix kernels --------------------------------------------
# Each reads a matrix through its {(row, col): Scalar} view ``entries`` and
# returns a Matrix built by the validating constructor.


def matmul(a, b):
    """a @ b: b grouped by row, then every entry of a walked."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch in matrix product")
    by_row = {}
    for (r, c), v in b.entries.items():
        by_row.setdefault(r, []).append((c, v))
    acc = {}
    for (r, k), v in a.entries.items():
        for c, w in by_row.get(k, ()):
            add_into(acc, (r, c), v * w)
    return Matrix(a.rows, b.cols, acc)


def restrict_columns(m, cols):
    """The submatrix keeping the given columns, in the given order, by one walk of m."""
    index = {c: j for j, c in enumerate(cols)}
    return Matrix(m.rows, len(cols), {(r, index[c]): v for (r, c), v in m.entries.items()
                                      if c in index})


def transpose(m):
    return Matrix(m.cols, m.rows, {(c, r): v for (r, c), v in m.entries.items()})


def block_diag(blocks):
    ents = {}
    r0 = c0 = 0
    for b in blocks:
        for (r, c), v in b.entries.items():
            ents[(r0 + r, c0 + c)] = v
        r0 += b.rows
        c0 += b.cols
    return Matrix(r0, c0, ents)


def _factor(m, negate):
    """(rows, cols, entries, unit) of (-1 if negate) * m; an int n is I_n, and
    unit says the entries are ones that need no multiplication."""
    if isinstance(m, int):
        one = -ONE if negate else ONE
        return m, m, [((k, k), one) for k in range(m)], not negate
    ents = [(rc, -v) for rc, v in m.entries.items()] if negate else m.entries.items()
    return m.rows, m.cols, ents, False


def kron_into(ents, a, b, roff=0, coff=0, negate=False):
    """Add (-1 if negate) * (a (x) b) into the {(row, col): Scalar} map ents at
    offset (roff, coff); an int n stands for I_n."""
    neg_b = negate and not isinstance(b, int)
    brows, bcols, bents, b_unit = _factor(b, neg_b)
    _, _, aents, a_unit = _factor(a, negate and not neg_b)
    for (r1, c1), v1 in aents:
        r0, c0 = roff + r1 * brows, coff + c1 * bcols
        for (r2, c2), v2 in bents:
            v = v2 if a_unit else (v1 if b_unit else v1 * v2)
            add_into(ents, (r0 + r2, c0 + c2), v)


# -- references for linear maps and band operators -------------------------------


def cokernel_dim(m):
    return m.rows - rank(m)


def homotopy_classes_dim(M, N, n=0):
    """dim H^n of the plain Hom complex from two fresh Hom differentials,
    delta_n and delta_(n-1), with no Hom complex built."""
    d_n = _hom_diff(M, N, n)
    return d_n.cols - rank(d_n) - rank(_hom_diff(M, N, n - 1))


def wide_window_band_dims(op, source, target, N=96):
    """(dim ker, dim coker) of a band operator read on the one window |n| <= N.

    source and target are ``class_indices`` generators.  The kernel is that of
    the untruncated windowed matrix, the cokernel that of the adjoint
    equations whose whole stencil lies in the window.  Both are exact once N
    is at least the operator's root bound N*.
    """
    kernel = kernel_basis(op.windowed_matrix(source(N))[1])
    targets = target(N)
    tindex = {n: i for i, n in enumerate(targets)}
    lines = [op.apply_line(n) for n in source(N)
             if all(n + s in tindex for s in op.shifts())]
    adjoint = Matrix(len(lines), len(targets),
                     {(i, tindex[m]): c for i, line in enumerate(lines) for m, c in line.items()})
    return len(kernel), len(kernel_basis(adjoint))


# -- the Scalar oracles of the band derivation -------------------------------------

HALF = Scalar(Fraction(1, 2))
HALF_I = Scalar(0, Fraction(1, 2))  # i/2
NEG_HALF_I = -HALF_I                # -i/2 = 1/(2i)


def vector_field_apply(X, lam, f):
    """``polarfields.vector_field_apply`` slot by slot on Scalars, as it was
    written before its int-cell kernel: x1 = r (z + 1/z)/2 and
    x2 = r (z - 1/z)/(2i) times the polar partial derivatives
    d1 f_n = r^{lam-1} (((lam-n)/2) z^{n+1} + ((lam+n)/2) z^{n-1}) and
    d2 f_n = r^{lam-1} ((i(n-lam)/2) z^{n+1} + (i(n+lam)/2) z^{n-1})."""
    (a, b), (c, d) = X
    a, b, c, d = (as_scalar(x) for x in (a, b, c, d))
    lam = as_scalar(lam)
    slots = []
    for entry, plus, minus, deriv in ((a, HALF, HALF, 1), (c, NEG_HALF_I, HALF_I, 1),
                                      (b, HALF, HALF, 2), (d, NEG_HALF_I, HALF_I, 2)):
        if not entry.is_zero():
            slots.append((entry * plus, entry * minus, deriv))
    out = {}
    for n, cn in f.items():
        ns = as_scalar(n)
        up, down = (lam - ns) * HALF, (lam + ns) * HALF
        d1 = ((n + 1, up), (n - 1, down))
        d2 = ((n + 1, -(I * up)), (n - 1, I * down))
        for u_plus, u_minus, deriv in slots:
            dd = d1 if deriv == 1 else d2
            for s, u in ((1, u_plus), (-1, u_minus)):
                cu = cn * u
                for m, v in dd:
                    add_into(out, m + s, cu * v)
    return out


def poly_at(p, n):
    """Horner's rule for the Poly p at n on Scalars, as ``Poly.__call__``
    evaluated before it summed on int cells."""
    n = as_scalar(n)
    acc = ZERO
    for c in reversed(p.coeffs):
        acc = acc * n + c if acc else c
    return acc


def x1x2_power(k):
    """Exact K-type expansion of (x1 x2)^k, dropping the overall r^{2k}.

    x1 x2 = r^2 (z^2 - z^{-2}) / (4i), multiplied out as a Laurent polynomial.
    """
    base = {2: ONE / (Scalar(4) * I), -2: Scalar(-1) / (Scalar(4) * I)}
    out = {0: ONE}
    for _ in range(k):
        nxt = {}
        for n, c in out.items():
            for m, d in base.items():
                add_into(nxt, n + m, c * d)
        out = nxt
    return out


def quarter_rotation_apply(k, f):
    """Rotation by k quarter turns: f(x . w^k) with w = [[0,1],[-1,0]].

    x . w = (-x2, x1) is the rotation phi -> phi + pi/2, so z^n picks up i^{kn}.
    """
    out = {}
    for n, c in f.items():
        add_into(out, n, c * (I ** ((k * n) % 4)))
    return out


def w_value(n):
    """Action of the rotation w = [[0,1],[-1,0]] on the K-type f_n."""
    return quarter_rotation_apply(1, {n: ONE})[n]


def minus_identity_value(n):
    """Action of -1 = w^2 on the K-type f_n."""
    return quarter_rotation_apply(2, {n: ONE})[n]
