"""Every sign convention in one place.

All chain-level constructions (shift, cone, tensor, Hom, standard and
relative boundaries, the degree -1 contractions) must take their signs from
here; nothing else in the package is allowed to write (-1)**k inline.
"""


def degree_sign(n: int) -> int:
    """(-1)^n as an int for every integer n, negative degrees included
    (Euler characteristics)."""
    return -1 if n % 2 else 1


def shift_diff_sign(k: int) -> int:
    """d_{C[k]} = shift_diff_sign(k) * d_C."""
    return -1 if k % 2 else 1


def shift_contraction_sign(k: int) -> int:
    """i_xi on C[k] picks up the same sign as d."""
    return -1 if k % 2 else 1


def cone_shifted_part_sign() -> int:
    """Cone(f)^n = M^{n+1} (+) N^n with d(m, x) = (sign * d m, f m + d x)."""
    return -1


def cone_contraction_shifted_sign() -> int:
    """i on the M[1] summand of a cone is negated, matching the shift."""
    return -1


def koszul_right_sign(i: int) -> int:
    """d(m (x) n) = dm (x) n + koszul_right_sign(deg m) * m (x) dn."""
    return -1 if i % 2 else 1


def tensor_contraction_right_sign(p: int) -> int:
    """i(x (x) y) = i x (x) y + tensor_contraction_right_sign(deg x) * x (x) i y."""
    return -1 if p % 2 else 1


def hom_precompose_sign(n: int) -> int:
    """delta f = d_N o f + hom_precompose_sign(n) * f o d_M for f of degree n."""
    return 1 if n % 2 else -1


def wedge_out_sign(i: int) -> int:
    """Sign of pulling the i-th factor (0-based) out of the front of a wedge:
    (-1)^{i} for 0-based i, i.e. (-1)^{i+1} in the usual 1-based formula."""
    return -1 if i % 2 else 1


def rel_action_sign(i: int) -> int:
    """Sign on the action term of the relative boundary: (-1)^{i+1} for 0-based i
    (the relative complex and the standard resolution use opposite conventions)."""
    return 1 if i % 2 else -1


def wedge_pair_sign(p: int, q: int) -> int:
    """Sign (-1)^{p+q} (1-based positions p < q) on bracket-contraction terms."""
    return -1 if (p + q) % 2 else 1
