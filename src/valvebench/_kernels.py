"""Source of the straight-line kernels that run the per-sample arithmetic,
and the one cache that compiles and keeps them.

A kernel is Python generated for one shape (the parameter count of an RLS
update; the orders, delay and fixed parts of a design; the orders, delay
and lengths of S, R and target of a pole check; the lengths of S, R and T
of a control law; the orders and delay of a closed-loop predictor's
regressor; the length of a sum) by a source function of this module.  A
key holds no data: the coefficients a kernel works on, the target of a
design or a pole check among them, are its arguments.  Callers look it up
with :func:`kernel`, which compiles it at its first lookup and keeps it.
The source forms every value with the operations of the loop it
replaces, in the same order, so each result carries the same bits; the
loops are kept as oracles in the tests.

A magnitude that only feeds a comparison (a trim guard, a pivot choice, the
pole check's tolerance and branch tests) is formed with no builtin call, as
``(x if x >= 0.0 else -x)`` (:func:`magnitude`), and a test |x| > k max_i
|e_i| is made as the conjunction of the tests |x| > k |e_i|.  Both are
exact.  The two forms of |x| differ only on -0.0, and a comparison treats
-0.0 as 0.0.  For k > 0 the rounding of k e is monotone in e, so k max_i
|e_i| rounds to the largest of the rounded k |e_i|.  Each kernel tests its
values for NaN before any such comparison, and that test must stay first:
on a NaN, max depends on the order of its arguments and the conjunction
does not.  A value that a kernel returns, such as the error of a pole
check, keeps abs and max, and so does the condition bound, whose |det M|
is divided before anything is compared.
"""

from __future__ import annotations

import functools
import math
from itertools import zip_longest

from .errors import DivergenceError

# The worst condition of a Sylvester matrix that a design accepts, on the
# design kernel's bound and on the general route's SVD alike.
SYLVESTER_MAX_COND = 1e10
# The most rows n of a Sylvester system that a design kernel solves: its
# condition bound divides by (n - 1)^((n - 1) / 2), a float up to n = 256.
MAX_KERNEL_ROWS = 256


def compiled(code: list[str], name: str):
    """The function `kernel` that the source lines define, with
    `DivergenceError`, `isfinite` and `sqrt` bound for it."""
    namespace = {"DivergenceError": DivergenceError, "isfinite": math.isfinite, "sqrt": math.sqrt}
    exec(compile("\n".join(code), name, "exec"), namespace)
    return namespace["kernel"]


@functools.cache
def kernel(source, *shape):
    """The kernel that source(*shape) defines, compiled at its first lookup
    and kept for every later one (a shape holds no data, so the cache needs
    no bound); None where the source gives None, a shape no kernel fits."""
    code = source(*shape)
    return None if code is None else compiled(code, f"<{source.__name__}{shape}>")


def indented(lines) -> list[str]:
    return ["    " + line for line in lines]


# ---------------------------------------------------------------------------
# Recursive least squares


def sum_text(terms) -> str:
    """Source text of a sum accumulated as a loop accumulates it: from 0.0,
    adding each term in order."""
    return " + ".join(["0.0", *terms])


def rls_source(n: int) -> list[str]:
    """Source of kernel(theta, F, lambda1, lambda2, lambda0, profile, phi,
    y_new) -> (theta, F, lambda1, a priori error, a posteriori error), one
    recursive least-squares update of n parameters on Python floats.

    theta, phi and the rows of F are sequences of n floats, F row-major;
    the successor's theta and F are new lists.  Each sum starts from 0.0 and
    adds its terms in index order, and each F entry is
    0.5 ((F_ij - f_i f_j / denom) / lambda1 + (F_ji - f_j f_i / denom) /
    lambda1) with f = F phi and denom = lambda1 / lambda2 + phi' F phi, or
    0.5 (F_ij / lambda1 + F_ji / lambda1) when lambda2 = 0.  On the diagonal
    both terms are one quotient q, formed once, and the entry is
    0.5 (q + q), which keeps the overflow of q + q to inf.

    The kernel makes no builtin call.  It raises ValueError for a phi of
    another length than n ("phi must match theta_hat") and for non-finite
    phi or y_new, tested at once as sum_i (phi_i - phi_i) + (y_new - y_new)
    != 0.0: x - x is 0.0 for a finite x and NaN for NaN or +-inf, so the
    sum is 0.0 exactly when every term is finite.  Finiteness of theta' F
    theta is tested the same way.  It raises DivergenceError, with a
    message that names the cause, when theta' F
    theta of the successor is not finite (so some entry of theta or F is
    not; a zero denominator counts as that), when F is no longer positive
    definite, or when lambda1 leaves (0, 1].  Definiteness is Sylvester's
    criterion through the pivots of Gaussian elimination without pivoting,
    the squares of F's Cholesky diagonal: at n = 2, F00 > 0 and det F > 0.
    """
    idx = range(n)
    phi = [f"p{i}" for i in idx]
    theta = [f"t{i}" for i in idx]
    F = [[f"F{i}_{j}" for j in idx] for i in idx]
    G = [[f"G{min(i, j)}_{max(i, j)}" for j in idx] for i in idx]
    code = [
        "def kernel(theta, F, lambda1, lambda2, lambda0, profile, phi, y_new):",
        "    try:",
        f"        {', '.join(phi)}, = phi",
        "    except ValueError:",
        '        raise ValueError("phi must match theta_hat") from None',
        f"    if {' + '.join(f'({p} - {p})' for p in [*phi, 'y_new'])} != 0.0:",
        '        raise ValueError("phi and y_new must be finite")',
        f"    {', '.join(theta)}, = theta",
        f"    {', '.join('(' + ', '.join(row) + ',)' for row in F)}, = F",
        "    try:",
    ]
    code += [f"        f{i} = {sum_text(f'{F[i][j]} * {phi[j]}' for j in idx)}" for i in idx]
    code += [
        f"        quad = {sum_text(f'{phi[i]} * f{i}' for i in idx)}",
        f"        eps0 = y_new - ({sum_text(f'{theta[i]} * {phi[i]}' for i in idx)})",
        "        eps = eps0 / (1.0 + quad)",
    ]
    code += [f"        u{i} = {theta[i]} + f{i} * eps" for i in idx]
    code += ["        if lambda2 != 0.0:", "            denom = lambda1 / lambda2 + quad"]
    for i in idx:
        for j in range(i, n):  # f_j f_i / denom is f_i f_j / denom, bit for bit
            code.append(f"            g = f{i} * f{j} / denom")
            if i == j:  # both terms are one quotient, formed once
                code += [
                    f"            q = ({F[i][i]} - g) / lambda1",
                    f"            {G[i][i]} = 0.5 * (q + q)",
                ]
            else:
                code.append(
                    f"            {G[i][j]} = 0.5 * "
                    f"(({F[i][j]} - g) / lambda1 + ({F[j][i]} - g) / lambda1)"
                )
    code.append("        else:")
    for i in idx:
        for j in range(i, n):
            if i == j:
                code += [f"            q = {F[i][i]} / lambda1", f"            {G[i][i]} = 0.5 * (q + q)"]
            else:
                code.append(f"            {G[i][j]} = 0.5 * ({F[i][j]} / lambda1 + {F[j][i]} / lambda1)")
    # theta' F theta is not finite whenever any entry of either is (inf * 0 is NaN).
    rows = [f"({sum_text(f'{G[i][j]} * u{j}' for j in idx)})" for i in idx]
    code += [
        f"        q = {sum_text(f'{rows[i]} * u{i}' for i in idx)}",
        "        finite = q - q == 0.0",
        "    except ZeroDivisionError:  # a zero denominator",
        "        finite = False",
        "    if not finite:",
        "        raise DivergenceError("
        '"recursive estimator diverged: parameter estimate or gain matrix F is not finite")',
    ]
    c = [row[:] for row in G]  # the names of the entries elimination works on
    for k in idx:
        code += [
            f"    if not {c[k][k]} > 0.0:",
            "        raise DivergenceError("
            '"recursive estimator diverged: gain matrix F lost positive definiteness")',
        ]
        for r in range(k + 1, n):
            code.append(f"    m = {c[r][k]} / {c[k][k]}")
            for j in range(k + 1, n):
                code.append(f"    c{r}_{j} = {c[r][j]} - m * {c[k][j]}")
                c[r][j] = f"c{r}_{j}"
    code += [
        '    if profile == "variable-forgetting":',
        "        lambda1 = lambda0 * lambda1 + 1.0 - lambda0",
        "    if not 0.0 < lambda1 <= 1.0:",
        "        raise DivergenceError("
        'f"recursive estimator diverged: lambda1 = {lambda1!r} left (0, 1]")',
        f"    return [{', '.join(f'u{i}' for i in idx)}], "
        f"[{', '.join('[' + ', '.join(row) + ']' for row in G)}], lambda1, eps0, eps",
    ]
    return code


# ---------------------------------------------------------------------------
# Sylvester solve, Bezout design and pole check


def sylvester_lines(n_a: int, n_b: int) -> list[str]:
    """Unindented straight-line source that solves M x = P for the
    Sylvester matrix M of A1 = a0..a{n_a} and B1 = 0, b1..b{n_b} and
    P = p0..p{n-1}, n = n_a + n_b (names the lines read); it binds
    x0..x{n-1} and bound, an upper bound on the 2-norm condition number of M.

    No entry of M is stored or operated on where the structure makes it
    zero.  Row 0 of M is A1[0] e_0, so x_0 = p_0 / A1[0]; the other n - 1
    unknowns come from Gaussian elimination with partial pivoting, the pivot
    row chosen as LAPACK's getrf chooses it (the first of the largest
    magnitudes).  A zero pivot, so a singular M, raises ZeroDivisionError.

    The bound is |M|_F^n / ((n - 1)^((n - 1) / 2) |det M|), with det M the
    product of A1[0] and the pivots.  It holds for n >= 1: the n - 1
    largest singular values have a product of at most
    (|M|_F^2 / (n - 1))^((n - 1) / 2) by the AM-GM inequality on their
    squares, sigma_min is |det M| over their product, and
    sigma_max <= |M|_F.  Overflow gives an infinite or NaN bound, which
    the caller treats as exceeded."""
    n = n_a + n_b
    a = [f"a{k}" for k in range(n_a + 1)]
    b = [None] + [f"b{k}" for k in range(1, n_b + 1)]

    def entry(i, j):  # M[i][j] as source text, None where it is zero
        k = i - j if j < n_b else i - j + n_b
        coeffs = a if j < n_b else b
        return coeffs[k] if 0 <= k < len(coeffs) else None

    code = ["x0 = p0 / a0"]
    # Rows and columns 1..n-1 once x0 is known; nz marks the entries that
    # may be nonzero, v the right-hand side.
    nz = {}
    for i in range(1, n):
        for j in range(1, n):
            nz[i, j] = entry(i, j) is not None
            if nz[i, j]:
                code.append(f"m{i}_{j} = {entry(i, j)}")
        rhs = [f"p{i}"] + ([f"{entry(i, 0)} * x0"] if entry(i, 0) else [])
        code.append(f"v{i} = {' - '.join(rhs)}")
    for k in range(1, n):
        if not nz[k, k]:
            code.append(f"m{k}_{k} = 0.0")
            nz[k, k] = True
        rows = [r for r in range(k + 1, n) if nz[r, k]]
        for r in rows:  # bring the first largest |m[r][k]| to row k
            cols = [j for j in range(k, n) if nz[k, j] or nz[r, j]]
            for j in cols:  # a zero that may move gets a name
                for i in (k, r):
                    if not nz[i, j]:
                        code.append(f"m{i}_{j} = 0.0")
                        nz[i, j] = True
            names_k = [f"m{k}_{j}" for j in cols] + [f"v{k}"]
            names_r = [f"m{r}_{j}" for j in cols] + [f"v{r}"]
            code.append(
                f"if {magnitude(f'm{r}_{k}')} > {magnitude(f'm{k}_{k}')}: "
                f"{', '.join(names_k + names_r)} = {', '.join(names_r + names_k)}"
            )
        for r in rows:
            code.append(f"q = m{r}_{k} / m{k}_{k}")
            for j in range(k + 1, n):
                if nz[k, j]:
                    code.append(f"m{r}_{j} = {f'm{r}_{j} - ' if nz[r, j] else '-'}q * m{k}_{j}")
                    nz[r, j] = True
            code.append(f"v{r} -= q * v{k}")
    for k in range(n - 1, 0, -1):
        terms = [f"v{k}"] + [f"m{k}_{j} * x{j}" for j in range(k + 1, n) if nz[k, j]]
        code.append(f"x{k} = ({' - '.join(terms)}) / m{k}_{k}")
    frob2 = " + ".join(
        [f"{n_b} * ({' + '.join(f'{c} * {c}' for c in a)})"]
        + ([f"{n_a} * ({' + '.join(f'{c} * {c}' for c in b[1:])})"] if n_a else [])
    )
    power = " * ".join(["f2"] * (n // 2) + (["sqrt(f2)"] if n % 2 else []))
    det = " * ".join(["a0"] + [f"m{k}_{k}" for k in range(1, n)])
    return code + [
        f"f2 = {frob2}",
        f"bound = {power} / ({(n - 1) ** ((n - 1) / 2)!r} * abs({det}))",
    ]


def product_source(x, y) -> list:
    """The coefficients of ``control._convolve(x, y)`` for entries that are
    float constants or names of floats: each a float where every product is
    constant, else source text that forms the same sum in the same order.

    Constant products are added at generation time.  A product with the
    constant 1.0 is the other factor, which is exact.  A product with the
    constant 0.0 is left out: a sum that starts from 0.0 is never -0.0, so
    adding +-0.0 leaves it as it is.  (That takes a finite name; where a
    name may not be finite, the kernel tests the name itself and gives the
    input to the general route.)"""
    out = []
    for k in range(len(x) + len(y) - 1):
        acc, terms = 0.0, []
        for i, xi in enumerate(x):
            if not 0 <= k - i < len(y):
                continue
            yj = y[k - i]
            if isinstance(xi, float) and isinstance(yj, float):
                if terms:
                    terms.append(repr(xi * yj))
                else:
                    acc += xi * yj
            elif isinstance(xi, float) or isinstance(yj, float):
                c, name = (xi, yj) if isinstance(xi, float) else (yj, xi)
                if c != 0.0:
                    terms.append(name if c == 1.0 else f"{c!r} * {name}")
            else:
                terms.append(f"{xi} * {yj}")
        out.append(" + ".join([repr(acc), *terms]) if terms else acc)
    return out


def src(entry) -> str:
    """An entry of :func:`product_source` as source text."""
    return entry if isinstance(entry, str) else repr(entry)


def named(prefix: str, entries: list, code: list[str]) -> list:
    """The entries with each source text bound to prefix<k> by a line
    appended to code; float constants stay as they are."""
    names = []
    for k, e in enumerate(entries):
        if isinstance(e, str):
            code.append(f"{prefix}{k} = {e}")
            e = f"{prefix}{k}"
        names.append(e)
    return names


def magnitude(entry) -> str:
    """Source text of |entry| for a comparison: a literal for a float
    constant, else the name's magnitude with no builtin call (-0.0 stays
    -0.0, which compares as 0.0)."""
    if isinstance(entry, float):
        return repr(abs(entry))
    return f"({entry} if {entry} >= 0.0 else -{entry})"


def untrimmed_source(entries: list, rel_tol: float):
    """Whether ``control._trimmed`` at rel_tol keeps every one of these finite
    entries: a bool when all are constants, else a source condition.

    The trim keeps them when |last| > rel_tol max_i |e_i|.  The condition
    tests |last| > rel_tol |e_i| for each other named entry, and |last|
    against rel_tol times the largest nonzero constant, a product formed
    here with the kernel's rounding.  For 0 < rel_tol < 1 the last entry's
    own term holds for every nonzero value, and a zero value fails every
    other term, so that term is left out; where it would be the only one,
    the condition is last != 0.0."""
    if not any(isinstance(e, str) for e in entries):
        return abs(entries[-1]) > rel_tol * max(map(abs, entries))
    *others, last = entries
    lhs = magnitude(last)
    terms = [f"{lhs} > {rel_tol!r} * {magnitude(e)}" for e in others if isinstance(e, str)]
    consts = [abs(e) for e in entries if isinstance(e, float) and e]
    if consts:
        terms.append(f"{lhs} > {rel_tol * max(consts)!r}")
    return " and ".join(terms) if terms else f"{last} != 0.0"


def guards(conditions) -> list[str]:
    """Lines that return None unless every condition holds; a condition is
    source text, or a bool known at generation time (True is left out)."""
    return [
        line
        for c in conditions if c is not True
        for line in (f"if not ({c}):", "    return None")
    ]


def unpacking(names: list, arg: str) -> str:
    """The line that unpacks the sequence `arg` into the names, as
    ``[] = arg`` for no names.  Either form raises ValueError on a sequence
    of another length, so a kernel taken for a shape rejects coefficients
    of any other."""
    return f"{', '.join(names)}, = {arg}" if names else f"[] = {arg}"


def finite_source(entries: list) -> str | bool:
    """A source condition true when the named floats among the entries are
    all finite (and false, at worst, when their sum overflows)."""
    names = [e for e in entries if isinstance(e, str)]
    return f"isfinite({' + '.join(names)})" if names else True


def design_source(na: int, nb: int, delay: int, hs: tuple, hr: tuple):
    """Source of kernel(a_coeffs, b_coeffs, p) -> (r_core, s_core, t, r, s)
    or None, the whole of a Bezout design for a model of these orders and
    delay and these fixed parts, with p the target padded to the n rows of
    the Sylvester system; None where no kernel applies.

    The kernel forms A1 = A H_S and B1 = q^-d B H_R (:func:`product_source`),
    solves the Sylvester system (:func:`sylvester_lines`), normalises by
    s'_0, forms R = H_R R' and S = H_S S', and sums T = R(1) from the
    highest power down.  It returns None on a trailing A1, B1 or R term at
    or below 1e-12 of its polynomial's largest (a trimmed degree, a zero
    numerator), a zero or non-finite x_0 = p_0 / A1[0], a zero pivot, a
    condition bound past SYLVESTER_MAX_COND, or a coefficient that is not
    finite.  With an A1 of degree 0, an s_0 = H_S[0] away from 1 or more
    than MAX_KERNEL_ROWS rows, no kernel applies.  Coefficients of other
    orders raise ValueError (:func:`unpacking`)."""
    n_a, n_b = na + len(hs) - 1, delay + nb + len(hr) - 1
    if n_a == 0 or abs(hs[0] - 1.0) > 1e-9 or n_a + n_b > MAX_KERNEL_ROWS:  # no R', s_0 != 1
        return None
    ma = [f"ma{i}" for i in range(1, na + 1)]
    mb = [f"mb{j}" for j in range(1, nb + 1)]
    body = [unpacking(mb, "mb"), unpacking(ma, "ma")]
    body.append(unpacking([f"p{i}" for i in range(n_a + n_b)], "p"))
    # A1[0] = H_S[0] and B1[0] = 0 are constants; s'_0 = x_0 / x_0 = 1 makes
    # s_0 = H_S[0], which the test above holds to 1.
    a1 = named("a", product_source([1.0, *ma], hs), body)
    b1 = named("b", product_source([0.0] * (delay + 1) + mb, hr), body)
    body += [f"a{k} = {e!r}" for k, e in enumerate(a1) if isinstance(e, float)]
    body += [f"b{k} = {e!r}" for k, e in enumerate(b1) if k and isinstance(e, float)]
    untrimmed = [untrimmed_source(a1, 1e-12), untrimmed_source(b1, 1e-12)]
    if False in untrimmed:
        return None
    body += guards([finite_source(a1 + b1), *untrimmed])
    body += ["try:", *indented(sylvester_lines(n_a, n_b))]
    body += ["except ZeroDivisionError:", "    return None"]
    # A non-finite x0 makes s'_0 = x0 / x0 NaN, which the last guard catches.
    body += guards(["x0 != 0.0", f"bound <= {SYLVESTER_MAX_COND!r}"])
    s_core = [f"sc{k}" for k in range(n_b)]
    r_core = [f"rc{k}" for k in range(n_a)]
    body += [f"{name} = x{k} / x0" for k, name in enumerate(s_core + r_core)]
    r = named("r", product_source(hr, r_core), body)
    s = named("s", product_source(hs, s_core), body)
    untrimmed_r = untrimmed_source(r, 1e-12)
    if untrimmed_r is False:
        return None
    # R(1), summed from the highest power down as DelayPolynomial evaluates it
    body.append(f"t = {' + '.join(['0.0', *map(src, reversed(r))])}")
    body += guards([finite_source(["t", *s_core, *r_core, *r, *s]), untrimmed_r])

    def tup(entries):
        return f"({', '.join(map(src, entries))},)"

    body.append(f"return {tup(r_core)}, {tup(s_core)}, t, {tup(r)}, {tup(s)}")
    return ["def kernel(ma, mb, p):", *indented(body)]


def pole_check_source(na: int, nb: int, delay: int, len_s: int, len_r: int, len_w: int):
    """Source of kernel(a_coeffs, b_coeffs, s, r, wanted) -> err or None,
    the error of a pole check for a model of these orders and delay, a
    controller of these lengths of S and R, and a monic target `wanted` of
    len_w coefficients.

    The kernel forms A S + q^-d B R (:func:`product_source`, the longer of
    A S and q^-d B R plus the shorter) and compares it, divided by its
    leading coefficient, with `wanted`, after the trim at 1e-9 of the
    largest magnitude: one branch per length the trim may leave.  It
    returns None on a zero leading coefficient or a coefficient that is not
    finite, and raises ValueError on a model, S, R or target of other
    lengths (:func:`unpacking`)."""
    s = [f"s{k}" for k in range(len_s)]
    r = [f"r{k}" for k in range(len_r)]
    ma = [f"ma{i}" for i in range(1, na + 1)]
    mb = [f"mb{j}" for j in range(1, nb + 1)]
    wanted = [f"w{k}" for k in range(len_w)]
    body = [
        unpacking(names, arg)
        for names, arg in ((ma, "ma"), (mb, "mb"), (s, "s"), (r, "r"), (wanted, "wanted"))
    ]
    as_ = product_source([1.0, *ma], s)
    br = product_source([0.0] * (delay + 1) + mb, r)
    if len(as_) < len(br):
        as_, br = br, as_
    closed = []
    for k, x in enumerate(as_):
        y = br[k] if k < len(br) else 0.0
        if isinstance(x, float) and isinstance(y, float):
            closed.append(x + y)
        elif isinstance(x, float) or isinstance(y, float):
            c, text = (x, y) if isinstance(x, float) else (y, x)
            # a sum from 0.0 is never -0.0, so adding +0.0 leaves it as it is
            closed.append(text if c == 0.0 else f"{c!r} + ({text})")
        else:
            closed.append(f"({x}) + ({y})")
    closed = named("c", closed, body)  # c0 = s0 is a name
    body += guards([finite_source(closed), f"{closed[0]} != 0.0"])
    # |c_k| bound to e<k> (a literal for a constant); tol is 1e-9 times their
    # running maximum, started from the largest nonzero constant
    mags = []
    for k, c in enumerate(closed):
        if isinstance(c, float):
            mags.append(magnitude(c))
        else:
            body.append(f"e{k} = {magnitude(c)}")
            mags.append(f"e{k}")
    running = [m for m, c in zip(mags, closed) if isinstance(c, str)]
    consts = [abs(c) for c in closed if isinstance(c, float) and c]
    body.append(f"scale = {max(consts)!r}" if consts else f"scale = {running.pop(0)}")
    for e in running:
        body += [f"if {e} > scale:", f"    scale = {e}"]
    body.append("tol = 1e-09 * scale")
    # One return per length that the trim at 1e-9 may leave, longest first.
    for keep in range(len(closed), 0, -1):
        achieved = closed[:keep]
        errors = [
            f"abs({src(c)} / {closed[0]} - {src(v)})"
            for c, v in zip_longest(achieved, wanted, fillvalue=0.0)
        ]
        err = errors[0] if len(errors) == 1 else f"max({', '.join(errors)})"
        if keep > 1:
            body.append(f"if {mags[keep - 1]} > tol:")
        body.append(f"{'    ' * (keep > 1)}return {err}")
    return ["def kernel(ma, mb, s, r, wanted):", *indented(body)]


# ---------------------------------------------------------------------------
# RST control law


def law_source(len_s: int, len_r: int, len_t: int, clamped: bool) -> list[str]:
    """Source of kernel(s, r, t, u_hist, y_hist, r_hist, y_t, r_t, limits) ->
    (u, saturated), one step of S u = -R y + T r for these lengths of S, R
    and T.

    y_t and r_t are converted to floats first.  u starts from
    t0 r_t - r0 y_t, subtracts s_i u(t-i), then r_i y(t-i), and adds
    t_i r(t-i), each for i = 1, 2, ... in turn; with `clamped` it is
    clamped to limits = (lo, hi), which sets `saturated`.  S, R, T, the
    histories and the limits hold floats (ControllerRuntime stores its
    limits so), so u is a float without a conversion.  The kernel appends
    u, y_t and r_t to the history lists (most recent last) and deletes the
    oldest of each.  A history shorter than its polynomial raises
    IndexError."""
    code = [
        "def kernel(s, r, t, u_h, y_h, r_h, y_t, r_t, limits):",
        *(
            f"    {', '.join(f'{name}{i}' for i in range(n))}, = {name}"
            for name, n in (("s", len_s), ("r", len_r), ("t", len_t))
        ),
        "    y_t = float(y_t)",
        "    r_t = float(r_t)",
        "    u = t0 * r_t - r0 * y_t",
    ]
    code += [f"    u -= s{i} * u_h[-{i}]" for i in range(1, len_s)]
    code += [f"    u -= r{i} * y_h[-{i}]" for i in range(1, len_r)]
    code += [f"    u += t{i} * r_h[-{i}]" for i in range(1, len_t)]
    code.append("    saturated = False")
    if clamped:
        code += [
            "    lo, hi = limits",
            "    if u < lo:",
            "        u, saturated = lo, True",
            "    elif u > hi:",
            "        u, saturated = hi, True",
        ]
    return code + [
        "    u_h.append(u)",
        "    del u_h[0]",
        "    y_h.append(y_t)",
        "    del y_h[0]",
        "    r_h.append(r_t)",
        "    del r_h[0]",
        "    return u, saturated",
    ]


# ---------------------------------------------------------------------------
# Closed-loop output-error predictor


def predictor_source(na: int, nb: int, delay: int) -> list[str]:
    """Source of kernel(theta, y_h, u_h, u_hat) -> (phi, prediction), the
    regressor step of a closed-loop predictor with na >= 1 y lags, nb >= 1
    u lags and this delay.

    y_h is the predictor's law history, whose last entry is y_hat(t); the
    kernel appends u_hat(t) to the u_hat history u_h and deletes its oldest
    value.  phi is a new list, [-y_hat(t) ... -y_hat(t-na+1), u_hat(t-d)
    ... u_hat(t-d-nb+1)], and the prediction is theta' phi, summed from 0.0
    in index order."""
    n = na + nb
    p = [f"p{i}" for i in range(n)]
    regressor = [f"p{i} = -y_h[-{1 + i}]" for i in range(na)]
    regressor += [
        f"p{na + j} = {'u_hat' if delay + j == 0 else f'u_h[-{1 + delay + j}]'}"
        for j in range(nb)
    ]
    body = [
        "u_h.append(u_hat)",
        "del u_h[0]",
        *regressor,
        f"{', '.join(f't{i}' for i in range(n))}, = theta",
        f"return [{', '.join(p)}], {sum_text(f't{i} * p{i}' for i in range(n))}",
    ]
    return ["def kernel(theta, y_h, u_h, u_hat):", *indented(body)]


def dot_source(n: int) -> list[str]:
    """Source of kernel(x, y) -> the sum of x[i] y[i] over n floats, from
    0.0 in index order (``ident._dot`` for one length)."""
    x = [f"x{i}" for i in range(n)]
    y = [f"y{i}" for i in range(n)]
    return [
        "def kernel(x, y):",
        f"    {', '.join(x)}, = x",
        f"    {', '.join(y)}, = y",
        f"    return {sum_text(f'{a} * {b}' for a, b in zip(x, y))}",
    ]
