"""Seeded input generation for the benchmark workloads.

Everything here is plain integer arithmetic written for the benchmark, so
the inputs of a seed stay the same whatever the library under test does:
the library receives only the integer tuples produced here.  Each
generator draws from fixed size bands, so two seeds carry the same mix of
work and differ only in the particular numbers.

The conditions that make the closed form apply are checked here with
independent code (minor gcds by cofactor expansion, representability by
an Apery table or a small depth-first search), so that every generated
system satisfies both chain conditions and no operation is expected to
fail.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random

# ---------------------------------------------------------------------------
# integer helpers


def det(columns):
    """Determinant of the square matrix whose columns are ``columns``."""
    n = len(columns)
    if n == 1:
        return columns[0][0]
    total = 0
    for i in range(n):
        minor = [col[1:] for j, col in enumerate(columns) if j != i]
        total += (-1) ** i * columns[i][0] * det(minor)
    return total


def minor_gcd(columns, e):
    """Gcd of the maximal minors of the e x len(columns) matrix."""
    g = 0
    for subset in itertools.combinations(columns, e):
        g = math.gcd(g, det(list(subset)))
    return g


def chain_gcds(gens, e):
    return [minor_gcd(gens[: e + k], e) for k in range(len(gens) - e + 1)]


def cone_numerators(leading, v):
    """Cramer numerators of ``v`` over ``leading``, signed so that the
    point lies in the open cone exactly when all are positive."""
    d = det(leading)
    sign = 1 if d > 0 else -1
    return [
        sign * det([v if j == i else col for j, col in enumerate(leading)])
        for i in range(len(leading))
    ]


def closed_form(gens, e, gcds):
    """sum (index - 1) * extra - sum leading, from the chain gcds."""
    g = [0] * e
    for k, extra in enumerate(gens[e:]):
        index = gcds[k] // gcds[k + 1]
        for j in range(e):
            g[j] += (index - 1) * extra[j]
    for v in gens[:e]:
        for j in range(e):
            g[j] -= v[j]
    return tuple(g)


def box_points(leading):
    """Points of the bounding box of the fundamental parallelepiped."""
    e = len(leading)
    return math.prod(sum(v[j] for v in leading) + 1 for j in range(e))


def apery(values):
    """Smallest element of <values> in each residue class mod min(values)."""
    a = min(values)
    dist = [None] * a
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d != dist[r]:
            continue
        for v in values:
            nd, nr = d + v, (r + v) % a
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return dist


def representable_1d(values, target):
    ap = apery(values)
    floor = ap[target % min(values)]
    return floor is not None and floor <= target


def frobenius_1d(values):
    ap = apery(values)
    return max(ap) - min(values)


def representable(gens, target, budget=200_000):
    """Depth-first search for a nonnegative combination (any dimension).

    Returns None when the node budget runs out, so callers can reject the
    input instead of trusting an unfinished search.
    """
    nodes = 0

    def search(pos, rest):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise OverflowError
        if not any(rest):
            return True
        if pos == len(gens):
            return False
        gen = gens[pos]
        bound = min(rest[j] // gen[j] for j in range(len(rest)) if gen[j] > 0)
        for count in range(bound, -1, -1):
            nxt = tuple(r - count * x for r, x in zip(rest, gen))
            if search(pos + 1, nxt):
                return True
        return False

    try:
        return search(0, tuple(target))
    except OverflowError:
        return None


def conditions_hold(gens, e):
    """Both chain conditions, checked independently of the library."""
    gcds = chain_gcds(gens, e)
    if any(gcds[k] <= gcds[k + 1] for k in range(len(gcds) - 1)):
        return False
    for k in range(1, len(gens) - e + 1):
        index = gcds[k - 1] // gcds[k]
        target = tuple(index * x for x in gens[e + k - 1])
        predecessors = gens[: e + k - 1]
        if e == 1:
            ok = representable_1d([v[0] for v in predecessors], target[0])
        else:
            ok = representable(predecessors, target)
        if not ok:
            return False
    return True


def vec_arg(v):
    return ",".join(str(x) for x in v)


# ---------------------------------------------------------------------------
# generator systems


def cone_system(rng, e, size, extra_max, extra=None):
    """Leading block v_i = size * e_i + e_{i+1} (indices cyclic), with a
    +1/-1 shift of two diagonal entries two times in three, plus one extra
    generator strictly inside the cone, spanning all of Z^e.

    The cost of conductor enumeration swings tenfold with the shape of the
    cone at a fixed |det|, so the shape is fixed and the diagonal moves only
    in ways that keep |det| and the cost within a few percent.  With one
    extra generator spanning Z^e the index equals |det| and the index-fold
    extra is the Cramer combination of the leading block, so both
    conditions hold by construction.  Small extra entries keep the
    Frobenius vector, and with it the oracle's sweep box, small.  A given
    ``extra`` is used instead of a random one.
    """
    while True:
        diagonal = [size] * e
        if rng.random() < 2 / 3:
            up, down = rng.sample(range(e), 2)
            diagonal[up] += 1
            diagonal[down] -= 1
        leading = []
        for i in range(e):
            v = [0] * e
            v[i] = diagonal[i]
            v[(i + 1) % e] = 1
            leading.append(tuple(v))
        d = det(leading)
        vector = extra or tuple(rng.randint(1, extra_max) for _ in range(e))
        nums = cone_numerators(leading, vector)
        if min(nums) <= 0 or math.gcd(d, *nums) != 1:
            continue
        return leading + [vector]


def covolume_system(rng, side_lo, side_hi, covolume):
    """Planar system (a, 1), (1, b), (1, 1) with a, b in [side_lo, side_hi]
    whose chain ends at ``covolume`` > 1, so no conductor set exists and the
    index is |det| / covolume.  The shape is fixed because the cost of the
    bounded Diophantine search swings with it."""
    while True:
        v1 = (rng.randint(side_lo, side_hi), 1)
        v2 = (1, rng.randint(side_lo, side_hi))
        extra = (1, 1)
        if math.gcd(det([v1, v2]), *cone_numerators([v1, v2], extra)) == covolume:
            return [v1, v2, extra]


def telescopic(rng, steps, head_lo, head_hi, spread, frob_lo, frob_hi, factors=(2, 3, 5)):
    """Numerical semigroup r_0 = d_0, r_k = d_k * t_k along a divisor chain
    d_0 > d_1 > ... > d_h = 1 (quotients drawn from ``factors``, d_{h-1} in
    [head_lo, head_hi]) with q_k = d_{k-1} / d_k < t_k <= 2 q_k + 1,
    except q_h < t_h <= q_h + spread, kept when both conditions hold and the
    Frobenius number falls in [frob_lo, frob_hi].  Keeping t_k small below
    the last level keeps the largest generator, and with it the oracle's
    sieve, close to the Frobenius number."""
    while True:
        chosen = [rng.choice(factors) for _ in range(steps - 1)]
        tail = rng.randint(head_lo, head_hi)
        d = [tail * math.prod(chosen[k:]) for k in range(steps)] + [1]
        values = [d[0]]
        for k in range(1, steps + 1):
            quotient = d[k - 1] // d[k]
            top = quotient + spread if k == steps else 2 * quotient + 1
            while True:
                t = rng.randint(quotient + 1, top)
                if math.gcd(t, quotient) == 1:
                    break
            values.append(d[k] * t)
        gens = [(v,) for v in values]
        if not conditions_hold(gens, 1):
            continue
        if frob_lo <= frobenius_1d(values) <= frob_hi:
            return values


def coprime_pair(rng, frob_lo, frob_hi):
    while True:
        a = rng.randint(40, 400)
        lo = (frob_lo + a) // (a - 1) + 1
        hi = (frob_hi + a) // (a - 1)
        if lo > hi:
            continue
        b = rng.randint(max(lo, a + 1), max(hi, a + 1))
        if math.gcd(a, b) == 1 and frob_lo <= a * b - a - b <= frob_hi:
            return [a, b]


def large_pair(rng, p_lo, p_hi):
    p = rng.randrange(p_lo | 1, p_hi, 2)
    return [p, p + 2]


# ---------------------------------------------------------------------------
# exponent data


def curve_generators(n, m):
    """Semigroup generators of a plane branch (the standard recursion)."""
    d = [n]
    for mk in m:
        d.append(math.gcd(mk, d[-1]))
    r = [n, m[0]]
    for k in range(2, len(m) + 1):
        r.append(r[-1] * (d[k - 2] // d[k - 1]) + m[k - 1] - m[k - 2])
    return r


def curve_exponents(rng, steps, m1_lo, m1_hi, cond_lo, cond_hi):
    """Characteristic exponents built from a factored gcd chain, with the
    first exponent in [m1_lo, m1_hi], kept when the conductor of the branch
    semigroup lies in [cond_lo, cond_hi]."""
    while True:
        factors = [rng.choice((2, 2, 3, 3, 5)) for _ in range(steps)]
        d = [math.prod(factors[k:]) for k in range(steps + 1)]
        n = d[0]
        exponents = []
        for k in range(1, steps + 1):
            if k == 1:
                lo, hi = max(m1_lo, n + 1) // d[1] + 1, m1_hi // d[1]
            else:
                lo = exponents[-1] // d[k] + 1
                hi = lo + 11
            if lo > hi:
                break
            for _ in range(50):
                t = rng.randint(lo, hi)
                if math.gcd(t, factors[k - 1]) == 1:
                    exponents.append(t * d[k])
                    break
            else:
                break
        if len(exponents) != steps:
            continue
        r = curve_generators(n, exponents)
        if not conditions_hold([(x,) for x in r], 1):
            continue
        conductor = frobenius_1d(r) + 1
        if cond_lo <= conductor <= cond_hi:
            return n, exponents


def qo_exponents(rng, e, n_choices, two_step):
    """Quasi-ordinary exponent data (multiplicity n, exponent vectors).

    One exponent with gcd(n, m_1) = 1 is always valid.  Two exponents are
    kept when the minor-gcd chain of [nI | m_1 m_2] drops strictly to
    n^(e-1) and the derived generator system meets both conditions.
    """
    while True:
        n = rng.choice(n_choices)
        if not two_step:
            m1 = tuple(rng.randint(1, 2 * n) for _ in range(e))
            if math.gcd(n, *m1) == 1:
                return n, [m1]
            continue
        divisors = [q for q in range(2, n) if n % q == 0]
        if not divisors:
            continue
        g1 = rng.choice(divisors)
        m1 = tuple(g1 * rng.randint(1, 4) for _ in range(e))
        m2 = tuple(x + rng.randint(1, 6) for x in m1)
        axis = [tuple(n if i == j else 0 for j in range(e)) for i in range(e)]
        gcds = chain_gcds(axis + [m1, m2], e)
        if not (gcds[0] > gcds[1] > gcds[2] == n ** (e - 1)):
            continue
        gens = qo_system(e, n, [m1, m2])
        if chain_gcds(gens, e) != gcds or not conditions_hold(gens, e):
            continue
        return n, [m1, m2]


def qo_system(e, n, m):
    """n * (standard basis) followed by the derived generators
    r_k = r_{k-1} * D_{k-2} / D_{k-1} + m_k - m_{k-1}."""
    axis = [tuple(n if i == j else 0 for j in range(e)) for i in range(e)]
    gcds = chain_gcds(axis + list(m), e)
    derived = [tuple(m[0])]
    for k in range(2, len(m) + 1):
        step = gcds[k - 2] // gcds[k - 1]
        derived.append(tuple(
            step * a + b - c for a, b, c in zip(derived[-1], m[k - 1], m[k - 2])
        ))
    return axis + derived


# ---------------------------------------------------------------------------
# interleaving


def block_stream(rng, makers):
    """Endless stream of blocks, each holding one item from every maker in
    a shuffled order, so every prefix carries the same mix."""
    while True:
        block = [make(rng) for make in makers]
        rng.shuffle(block)
        yield from block


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")
