"""Dense coordinate-tuple helpers and references for the tests.

The package passes Lie-algebra elements and coordinate vectors as sparse
{index: Scalar} maps.  The tuple helpers here build and read coordinate
tuples, and the dense bracket, ad, Jacobi check, embedding, action matrix and
restriction are the routines the sparse ones replaced, kept as oracles.
``cokernel_dim``, ``homotopy_classes_dim`` and the wide-window band
dimensions are references with no caller in the package.
"""

from hch.complexes import _hom_diff
from hch.gkmodules import FiniteModule
from hch.linalg import Matrix, kernel_basis, rank
from hch.scalars import ONE, ZERO, as_scalar

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
