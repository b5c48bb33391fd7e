"""Tests for factor-offset decomposition, reconstruction, the induced
affine coefficient maps, and the localization windows."""

import math
import random
import time
from fractions import Fraction

import pytest

from szego import (
    AffineMap,
    Decomposition,
    DegreeDeficientError,
    ExpPoly,
    Poly,
    SscContext,
    cluster_roots,
    compose,
    composition_factor,
    decompose_exp,
    decompose_poly,
    decomposition_from_json,
    decomposition_map,
    decomposition_to_json,
    exp_compose,
    exp_composition_factor,
    exp_monic_to_normalized,
    exp_normalized_to_monic,
    extract_core,
    falling_factorial_transform,
    interpolate,
    localization_intervals,
    padded_core,
    recompose,
)
import szego.decompose as decompose_module
from szego.decompose import MONIC, NORMALIZED
from szego.exact import falling_factorial_coeffs

F = Fraction


def _rand_vec(rng, n, bound=8):
    return [F(rng.randint(-bound, bound), rng.randint(1, 5)) for _ in range(n)]


def _elementary_symmetric(values):
    """sigma_1..sigma_len as coefficients of prod (t + v)."""
    q = Poly.from_roots([-v for v in values])
    n = len(values)
    return tuple(q.coeff(n - j) for j in range(1, n + 1))


def test_padded_core_and_extract_core():
    c = [F(1, 3), F(0)]
    p = padded_core(c, 2, 1)
    assert p == Poly([1, 1]) * Poly([0, F(1, 3), 1])
    assert extract_core(p, 2, 1) == (F(1, 3), F(0))
    with pytest.raises(ValueError):
        padded_core(c, 3, 1)
    # (x+2)(x+3) is not divisible by (x+1)
    with pytest.raises(ValueError):
        extract_core(Poly([6, 5, 1]), 1, 1)
    # divisible, but the quotient degree is wrong for the claimed split
    with pytest.raises(ValueError):
        extract_core(Poly([1, 2, 1]), 2, 1)


def test_padded_core_and_extract_core_at_a_large_shell(monkeypatch):
    # (x+1)^k is the binomial row, never a power of the Poly x + 1
    def no_power(self, e):
        raise AssertionError("Poly.__pow__ called")

    monkeypatch.setattr(Poly, "__pow__", no_power)
    c, k = (F(1, 3), F(-2, 5), F(7, 2)), 2000
    p = padded_core(c, 3, k)
    assert p == recompose(decompose_poly(c, 3, k, want_roots=False))
    assert p.degree == 3 + k and p.constant == F(7, 2)
    assert extract_core(p, 3, k) == c


def test_decompose_worked_zero_offsets():
    # (x+1)(x^2 + x/3) is the self-composition of (x+1)^2 x: offsets 0, 0
    dec = decompose_poly([F(1, 3), F(0)], 2, 1)
    assert dec.sigma == (F(0), F(0))
    assert dec.mode == "finite" and dec.n == 2 and dec.k == 1
    assert max(abs(z) for z in dec.roots) < 1e-6


def test_decompose_recovers_chain_offsets_exactly():
    # compose explicit factor chains, then ask for the offsets back
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        offsets = _rand_vec(rng, n, 6)
        ctx = SscContext(n + k)
        p = composition_factor(n, k, offsets[0])
        for a in offsets[1:]:
            p = compose(p, composition_factor(n, k, a), ctx)
        c = extract_core(p, n, k)  # the chain really is (x+1)^k times a monic core
        dec = decompose_poly(c, n, k, want_roots=False)
        assert dec.sigma == _elementary_symmetric(offsets), (n, k, offsets)


def test_recompose_round_trip_finite():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(1, 5)
        k = rng.randint(1, 4)
        c = _rand_vec(rng, n)
        dec = decompose_poly(c, n, k, want_roots=False)
        assert recompose(dec) == padded_core(c, n, k)


def test_recompose_at_large_k():
    # the binomial weights C(n+k, s) come from one running product
    c = (F(1, 3), F(-2, 5), F(7, 2))
    for k in (1, 2, 700):
        dec = decompose_poly(c, 3, k, want_roots=False)
        assert recompose(dec) == padded_core(c, 3, k)


def test_recompose_from_offsets_directly():
    # sigma chosen first, polynomial second: both directions agree.
    # sigma = (3, 2) are the symmetric values of the offsets {1, 2}
    dec = Decomposition(mode="finite", sigma=(F(3), F(2)), n=2, k=1)
    p = recompose(dec)
    ctx = SscContext(3)
    q = compose(
        composition_factor(2, 1, F(1)),
        composition_factor(2, 1, F(2)),
        ctx,
    )
    assert p == q == Poly([2, 5, 4, 1])  # (x+1)^2 (x+2), offset 1 is the unit
    back = decompose_poly(extract_core(p, 2, 1), 2, 1, want_roots=False)
    assert back.sigma == (F(3), F(2))


def test_decompose_constant_alignment():
    # the last offset-symmetric value equals the core constant term
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        c = _rand_vec(rng, n)
        dec = decompose_poly(c, n, k, want_roots=False)
        assert dec.sigma[-1] == c[-1]
    dec = decompose_poly([F(2), F(0)], 2, 2, want_roots=False)
    assert dec.sigma[-1] == 0


def test_decompose_binomial_fixpoint():
    # all offsets 1 compose to (x+1)^(n+k); sigma_j = C(n, j)
    from szego.exact import binomial

    for n, k in [(1, 1), (2, 1), (3, 2)]:
        c = tuple(F(binomial(n, j)) for j in range(1, n + 1))
        dec = decompose_poly(c, n, k, want_roots=False)
        assert dec.sigma == c
        assert recompose(dec) == Poly([1, 1]) ** (n + k)


def test_decompose_validation():
    with pytest.raises(ValueError):
        decompose_poly([F(1)], 0, 1)
    with pytest.raises(ValueError):
        decompose_poly([F(1)], 1, 0)
    with pytest.raises(ValueError):
        decompose_poly([F(1), F(2)], 1, 1)


def test_decompose_roots_are_conjugate_closed():
    # core x^2 + 1 has offset-symmetric values (-1, 1): complex offsets
    dec = decompose_poly([F(0), F(1)], 2, 1)
    assert dec.sigma == (F(-1), F(1))
    z = sorted(dec.roots, key=lambda w: w.imag)
    assert abs(z[0].conjugate() - z[1]) < 1e-9
    assert abs(z[0].imag) > 0.1  # genuinely non-real pair


def test_exp_decompose_normalized_worked():
    # 1 - x + 2x^2: reciprocal-side values (-3, 2)
    dec = decompose_exp([F(-1), F(2)], NORMALIZED)
    assert dec.sigma == (F(-3), F(2))
    assert dec.mode == "exp" and dec.m == 2 and dec.convention == NORMALIZED


def test_exp_decompose_monic_worked():
    # x^3 + c1 x^2 + c2 x + c3 maps to (c1 - 3, c2 - c1 + 2, c3)
    dec = decompose_exp([F(-2), F(1, 3), F(-2, 3)], MONIC, want_roots=False)
    assert dec.sigma == (F(-5), F(13, 3), F(-2, 3))


def test_exp_decompose_chain_oracle():
    # explicit factor chains again, now for e^x (1 + x/a)
    rng = random.Random(44)
    for _ in range(20):
        m = rng.randint(1, 4)
        offsets = []
        while len(offsets) < m:
            a = F(rng.randint(-8, 8), rng.randint(1, 4))
            if a != 0:
                offsets.append(a)
        f = exp_composition_factor(offsets[0])
        for a in offsets[1:]:
            f = exp_compose(f, exp_composition_factor(a))
        p = f.poly
        assert p.constant == 1
        assert p.degree == m  # the top coefficient is prod 1/a_i, never zero
        c = [p.coeff(j) for j in range(1, m + 1)]
        dec = decompose_exp(c, NORMALIZED, want_roots=False)
        assert dec.sigma == _elementary_symmetric([1 / a for a in offsets])


def test_exp_round_trips_both_conventions():
    rng = random.Random(45)
    for _ in range(30):
        m = rng.randint(1, 5)
        c = _rand_vec(rng, m)
        if c[-1] == 0:
            c[-1] = F(1, 2)
        dec = decompose_exp(c, NORMALIZED, want_roots=False)
        f = recompose(dec)
        assert f == ExpPoly(Poly([F(1)] + list(c)))
        cm = _rand_vec(rng, m)
        decm = decompose_exp(cm, MONIC, want_roots=False)
        fm = recompose(decm)
        assert fm == ExpPoly(Poly(list(reversed(cm)) + [F(1)]))


def test_exp_degree_deficient_rejection():
    with pytest.raises(DegreeDeficientError):
        decompose_exp([F(1), F(0)], NORMALIZED)
    # monic convention is total
    dec = decompose_exp([F(1), F(0)], MONIC, want_roots=False)
    assert dec.sigma[-1] == 0
    with pytest.raises(ValueError):
        decompose_exp([], NORMALIZED)
    with pytest.raises(ValueError):
        decompose_exp([F(1)], "other")


def test_exp_convention_converters():
    c = [F(2), F(-1), F(3, 2)]
    monic = exp_normalized_to_monic(c)
    # P = 1 + 2x - x^2 + 3/2 x^3, divided by 3/2, coefficients reversed
    assert monic == (F(-2, 3), F(4, 3), F(2, 3))
    assert exp_monic_to_normalized(monic) == tuple(c)
    with pytest.raises(DegreeDeficientError):
        exp_normalized_to_monic([F(1), F(0)])
    with pytest.raises(DegreeDeficientError):
        exp_monic_to_normalized([F(1), F(0)])


def test_exp_conventions_describe_the_same_factors():
    # sigma~_k = sigma_(m-k) / sigma_m links the two decompositions
    rng = random.Random(46)
    for _ in range(20):
        m = rng.randint(1, 5)
        c = _rand_vec(rng, m)
        if c[-1] == 0:
            c[-1] = F(1, 3)
        tilde = decompose_exp(c, NORMALIZED, want_roots=False).sigma
        monic_vec = exp_normalized_to_monic(c)
        sig = decompose_exp(monic_vec, MONIC, want_roots=False).sigma
        full = (F(1),) + sig
        assert sig[-1] != 0
        for kk in range(1, m + 1):
            assert tilde[kk - 1] == full[m - kk] / sig[-1], kk


def test_decomposition_map_finite_worked():
    amap = decomposition_map("finite", n=2, k=1)
    assert amap.matrix == ((F(3, 2), F(-1, 2)), (F(0), F(1)))
    assert amap.offset == (F(-1, 2), F(0))
    assert amap.invertible
    assert amap.apply([F(1, 3), F(0)]) == (F(0), F(0))


def test_decomposition_map_matches_decomposer():
    rng = random.Random(47)
    for n, k in [(1, 1), (2, 2), (3, 1)]:
        amap = decomposition_map("finite", n=n, k=k)
        for _ in range(10):
            c = _rand_vec(rng, n)
            assert amap.apply(c) == decompose_poly(c, n, k, want_roots=False).sigma


def test_decomposition_map_exp_worked():
    amap = decomposition_map("exp", m=2, convention=NORMALIZED)
    assert amap.matrix == ((F(1), F(-1)), (F(0), F(1)))
    assert amap.offset == (F(0), F(0))
    mon = decomposition_map("exp", m=3, convention=MONIC)
    assert mon.offset == (F(-3), F(2), F(0))
    assert mon.matrix == ((F(1), F(0), F(0)), (F(-1), F(1), F(0)), (F(0), F(0), F(1)))
    assert mon.apply([F(-2), F(1, 3), F(-2, 3)]) == (F(-5), F(13, 3), F(-2, 3))


def test_decomposition_map_validation():
    with pytest.raises(ValueError):
        decomposition_map("finite", n=2)
    with pytest.raises(ValueError):
        decomposition_map("exp")
    with pytest.raises(ValueError):
        decomposition_map("nope", n=1, k=1)


def test_affine_map_apply_and_determinant():
    amap = AffineMap(matrix=((F(2), F(0)), (F(1), F(3))), offset=(F(1), F(-1)))
    assert amap.dimension == 2
    assert amap.apply([F(1), F(1)]) == (F(3), F(3))
    assert amap.determinant() == 6
    assert amap.invertible
    with pytest.raises(ValueError):
        amap.apply([F(1)])
    flat = AffineMap(matrix=((F(1), F(1)), (F(2), F(2))), offset=(F(0), F(0)))
    assert not flat.invertible


def test_localization_intervals_worked():
    assert localization_intervals(2, 1) == [
        (F(-1, 2), F(0)),
        (F(-2), F(-1, 2)),
        (None, F(-2)),
    ]
    ivs = localization_intervals(2, 2)
    assert ivs == [
        (F(-1, 3), F(0)),
        (F(-1), F(-1, 3)),
        (F(-3), F(-1)),
        (None, F(-3)),
    ]


def test_localization_intervals_tile_the_negative_axis():
    for n, k in [(1, 1), (2, 3), (4, 2)]:
        ivs = localization_intervals(n, k)
        assert ivs[0][1] == 0
        assert ivs[-1][0] is None
        for (lo, _), (_, nxt_hi) in zip(ivs, ivs[1:]):
            assert lo == nxt_hi  # adjacent windows share an endpoint


def test_endpoint_offset_sits_in_two_windows():
    # chain with offsets -1 and -4 at n = k = 2; -1 is the shared endpoint
    # of windows 1 and 2, so a matching still finds distinct windows
    ctx = SscContext(4)
    p = compose(
        composition_factor(2, 2, F(-1)), composition_factor(2, 2, F(-4)), ctx
    )
    dec = decompose_poly(extract_core(p, 2, 2), 2, 2)
    got = sorted(z.real for z in dec.roots)
    assert abs(got[0] + 4) < 1e-8 and abs(got[1] + 1) < 1e-8
    ivs = localization_intervals(2, 2)

    def windows(value, tol=1e-9):
        out = []
        for s, (lo, hi) in enumerate(ivs):
            if (lo is None or value >= float(lo) - tol) and value <= float(hi) + tol:
                out.append(s)
        return out

    w_minus1 = windows(-1.0)
    w_minus4 = windows(-4.0)
    assert w_minus1 == [1, 2]
    assert w_minus4 == [3]
    # distinct windows exist for the pair
    assert any(a != b for a in w_minus1 for b in w_minus4)


def test_repeated_offset_cluster():
    # (x+1)(x^2 - 2x/3 + 1) decomposes with a double offset at -1
    dec = decompose_poly([F(-2, 3), F(1)], 2, 1)
    assert dec.sigma == (F(-2), F(1))
    clusters = cluster_roots(dec.roots, rel_tol=1e-4)
    assert len(clusters) == 1
    center, mult = clusters[0]
    assert mult == 2 and abs(center + 1) < 1e-4


def test_decomposition_json_round_trip():
    dec = decompose_poly([F(1, 3), F(0)], 2, 1)
    obj = decomposition_to_json(dec)
    assert obj["mode"] == "finite" and obj["sigma"] == ["0", "0"]
    back = decomposition_from_json(obj)
    assert back.sigma == dec.sigma and back.n == 2 and back.k == 1
    assert back.roots == dec.roots

    dec2 = decompose_exp([F(-1), F(2)], NORMALIZED, want_roots=False)
    obj2 = decomposition_to_json(dec2)
    assert obj2["convention"] == NORMALIZED and "roots" not in obj2
    back2 = decomposition_from_json(obj2)
    assert back2.sigma == dec2.sigma and back2.m == 2

    with pytest.raises(ValueError):
        decomposition_from_json({"mode": "finite"})
    with pytest.raises(ValueError):
        decomposition_from_json({"mode": "alien", "sigma": []})


def test_recompose_against_the_homogenized_reference():
    # [x^s]P = C(m,s)/m^n * sum_j sigma_j s^(n-j) (m-s)^j with sigma_0 = 1
    def reference(sigma, n, k):
        m = n + k
        sig = (1,) + tuple(sigma)
        return [
            math.comb(m, s) * sum(v * s ** (n - j) * (m - s) ** j for j, v in enumerate(sig)) / m**n
            for s in range(m + 1)
        ]

    exact = recompose(Decomposition(mode="finite", sigma=(F(1, 10), F(-3, 4)), n=2, k=1))
    assert exact.is_exact
    assert list(exact.coeffs) == reference((F(1, 10), F(-3, 4)), 2, 1)
    for sigma in ((0.1, F(-3, 4)), (F(1, 10), -0.75 + 0j), (3 + 1j, 2 + 2j, F(-1, 3))):
        with pytest.raises(ValueError, match="exact"):
            recompose(Decomposition(mode="finite", sigma=sigma, n=len(sigma), k=2))


def test_recompose_validation():
    with pytest.raises(ValueError):
        recompose(Decomposition(mode="finite", sigma=(F(1),), n=2, k=1))
    with pytest.raises(ValueError):
        recompose(Decomposition(mode="exp", sigma=(F(1),), m=2, convention=NORMALIZED))
    with pytest.raises(ValueError):
        recompose(Decomposition(mode="alien", sigma=()))


# -- Phi_{n,k}: the cached integer matrix -------------------------------------


def _reference_sigma(c, n, k):
    """sigma by the definition: pad the core with (x+1)^k, then Newton-
    interpolate Q(s/(m-s)) = [x^s]P * m^n / (C(m,s) (m-s)^n) at s = 0..n."""
    m = n + k
    core = [F(v) for v in reversed(c)] + [F(1)]
    p = [
        sum(math.comb(k, s - i) * core[i] for i in range(max(0, s - k), min(n, s) + 1))
        for s in range(n + 1)
    ]
    xs = [F(s, m - s) for s in range(n + 1)]
    table = [p[s] * m**n / (math.comb(m, s) * (m - s) ** n) for s in range(n + 1)]
    newton = [table[0]]
    for d in range(1, n + 1):
        table = [(table[i + 1] - table[i]) / (xs[i + d] - xs[i]) for i in range(len(table) - 1)]
        newton.append(table[0])
    q = [F(0)] * (n + 1)  # ascending; Q <- newton[d] + (t - xs[d]) Q for d = n..0
    for d in range(n, -1, -1):
        q = [newton[d] - xs[d] * q[0]] + [q[j - 1] - xs[d] * q[j] for j in range(1, n + 1)]
    assert q[n] == 1
    return tuple(q[n - j] for j in range(1, n + 1))


def test_phi_matches_the_padded_interpolation_reference():
    rng = random.Random(48)
    for n in range(1, 13):
        for k in (1, 2, 3, 7):
            ints = [rng.randint(-9, 9) for _ in range(n)]
            fracs = _rand_vec(rng, n, 40)
            wide = [F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(n)]
            for c in (ints, fracs, wide):
                got = decompose_poly(c, n, k, want_roots=False).sigma
                assert got == _reference_sigma(c, n, k), (n, k, c)
                assert all(type(v) is F for v in got)


def test_phi_last_row_is_e_n_with_zero_offset():
    for n, k in [(1, 1), (2, 5), (4, 3), (7, 2), (9, 40)]:
        amap = decomposition_map("finite", n=n, k=k)
        assert amap.matrix[-1] == tuple(F(int(i == n - 1)) for i in range(n))
        assert amap.offset[-1] == 0


def test_phi_tends_to_the_identity_like_one_over_k():
    # seen in probes for n <= 6, not a statement from the paper
    for n in range(1, 7):
        for k in (10, 100, 1000):
            amap = decomposition_map("finite", n=n, k=k)
            bound = F(math.comb(n, 2), k)
            for i, row in enumerate(amap.matrix):
                assert all(abs(v - (i == j)) <= bound for j, v in enumerate(row)), (n, k)
            assert all(abs(v) <= bound for v in amap.offset), (n, k)


def _map_entries(amap):
    """{(j, l): coefficient of c_l in sigma_j}, with l = 0 the offset."""
    n = amap.dimension
    return {
        (j, l): amap.offset[j - 1] if l == 0 else amap.matrix[j - 1][l - 1]
        for j in range(1, n + 1)
        for l in range(n + 1)
    }


def test_phi_tends_to_the_monic_exp_map():
    # With m = n + k, feed c_l / m^l and read sigma_j m^j: entry (j, l)
    # becomes phi_jl m^(j-l).  Times (m!/k!) m^n it is a polynomial in m of
    # degree <= 2n, fixed here by 3n+2 values of k, whose m^(2n)
    # coefficient is entry (j, l) of the monic exp map
    for n in range(1, 13):
        want = _map_entries(decomposition_map("exp", m=n, convention=MONIC))
        points = {key: [] for key in want}
        for k in range(1, 3 * n + 3):
            m = n + k
            weight = math.perm(m, n) * m**n
            for (j, l), v in _map_entries(decomposition_map("finite", n=n, k=k)).items():
                points[j, l].append((m, v * F(m) ** (j - l) * weight))
        for key, pts in points.items():
            q = interpolate(pts)
            assert q.degree <= 2 * n and q.coeff(2 * n) == want[key], (n, key)


def test_phi_is_cheap_for_large_k_and_large_n():
    t0 = time.perf_counter()
    amap = decomposition_map("finite", n=4, k=10**4)
    assert time.perf_counter() - t0 < 2.0
    assert amap.invertible
    decompose_module._phi_rows.cache_clear()
    rng = random.Random(49)
    c = _rand_vec(rng, 128)
    t0 = time.perf_counter()
    dec = decompose_poly(c, 128, 2, want_roots=False)
    assert time.perf_counter() - t0 < 2.0
    assert recompose(dec) == padded_core(c, 128, 2)


def _closed_form_column(n, k, i):
    """Q_i(t) = k!/m! prod_{a<i} ((m-a) t - a) prod_{b<n-i} ((m-b) - b t)."""
    m = n + k
    q = Poly([F(math.factorial(k), math.factorial(m))])
    for a in range(i):
        q = q * Poly([-a, m - a])
    for b in range(n - i):
        q = q * Poly([m - b, -b])
    return q


def test_phi_last_row_is_the_monic_term():
    # [t^n] of the closed form is 1 for the core x^n and 0 for every other
    # core monomial, so Q is monic, _phi_rows leaves that row out, and
    # row j-1 reads sigma_j = [t^(n-j)] Q as (offset, c_1, ..., c_n)
    for n in range(1, 13):
        for k in range(1, 13):
            rows, den = decompose_module._phi_rows(n, k)
            cols = [_closed_form_column(n, k, i) for i in range(n + 1)]
            assert [q.coeff(n) for q in cols] == [0] * n + [1], (n, k)
            assert den > 0 and math.gcd(den, *[v for row in rows for v in row]) == 1
            assert rows == tuple(
                tuple(cols[n - l].coeff(n - j) * den for l in range(n + 1))
                for j in range(1, n + 1)
            ), (n, k)


def test_phi_cache_tells_k_apart():
    c = [F(1, 2), F(-3), F(2, 7)]
    one = decompose_poly(c, 3, 1, want_roots=False).sigma
    two = decompose_poly(c, 3, 2, want_roots=False).sigma
    assert one != two
    assert one == _reference_sigma(c, 3, 1) and two == _reference_sigma(c, 3, 2)
    assert decomposition_map("finite", n=3, k=1) != decomposition_map("finite", n=3, k=2)


# -- exp mode on the falling-factorial transform, maps read off the matrices --


# decompose_exp reads sigma straight off T(P); these pin what it relies on


def test_transform_generates_the_gammas_on_the_monomial_basis():
    # T and the gamma sums are both linear in P, so agreeing on each x^d
    # at more nodes than the degree means agreeing on every P of degree <= 64
    for d in range(65):
        g = falling_factorial_transform(Poly.monomial(d))
        want = ExpPoly(Poly.monomial(d)).gamma_numerators(2 * d + 1)
        assert [g(j) for j in range(2 * d + 2)] == want, d


def test_transform_keeps_the_denominator():
    rng = random.Random(50)
    for _ in range(40):
        p = Poly(_rand_vec(rng, rng.randint(1, 16), 40) + [F(rng.randint(1, 9), 7)])
        assert falling_factorial_transform(p)._den == p._den


def test_stirling_rows_keep_the_constant_and_leading_coefficients():
    # so T keeps P(0) = 1 (normalized) and the lead 1 (monic)
    for d in range(1, 65):
        row = falling_factorial_coeffs(d)
        assert len(row) == d + 1 and row[0] == 0 and row[d] == 1, d


def _stirling1_reference(m):
    """s[i][j] = s(i, j) for 0 <= i, j <= m, from s(i+1, j) = s(i, j-1) - i s(i, j)."""
    s = [[0] * (m + 1) for _ in range(m + 1)]
    s[0][0] = 1
    for i in range(m):
        for j in range(1, i + 2):
            s[i + 1][j] = s[i][j - 1] - i * s[i][j]
    return s


def test_exp_maps_are_signed_stirling_numbers_of_the_first_kind():
    for m in range(1, 9):
        s = _stirling1_reference(m)
        span = range(1, m + 1)
        normalized = decomposition_map("exp", m=m, convention=NORMALIZED)
        assert normalized.offset == (F(0),) * m
        # row j, column i holds s(i, j): upper triangular with unit diagonal
        assert normalized.matrix == tuple(tuple(F(s[i][j]) for i in span) for j in span)
        monic = decomposition_map("exp", m=m, convention=MONIC)
        assert monic.offset == tuple(F(s[m][m - j]) for j in span)
        assert monic.matrix == tuple(tuple(F(s[m - l][m - j]) for l in span) for j in span)


def _probed_map(image, dim):
    """The map probed around b = (0, ..., 0, 1), whose last entry keeps a
    normalized exp input of full degree: column l = image(b + e_l) -
    image(b), and offset = image(b) - column dim."""
    def at(l):
        v = [F(0)] * (dim - 1) + [F(1)]
        if l is not None:
            v[l] += 1
        return image(v)

    base = at(None)
    cols = [[a - b for a, b in zip(at(l), base)] for l in range(dim)]
    offset = tuple(b - c for b, c in zip(base, cols[-1]))
    return tuple(tuple(col[j] for col in cols) for j in range(dim)), offset


# the (n, k) of the finite maps checked against independent references
_MAP_SIZES = [(1, 1), (2, 1), (3, 2), (5, 3), (8, 1), (6, 40)]


def test_maps_equal_the_probed_maps_and_the_phi_matrix():
    for n, k in _MAP_SIZES:
        amap = decomposition_map("finite", n=n, k=k)
        image = lambda v: decompose_poly(v, n, k, want_roots=False).sigma
        assert (amap.matrix, amap.offset) == _probed_map(image, n)
        rows, den = decompose_module._phi_rows(n, k)
        assert amap.offset == tuple(F(row[0], den) for row in rows)
        assert amap.matrix == tuple(tuple(F(v, den) for v in row[1:]) for row in rows)
    for m in range(1, 7):
        for convention in (NORMALIZED, MONIC):
            amap = decomposition_map("exp", m=m, convention=convention)
            image = lambda v: decompose_exp(v, convention, want_roots=False).sigma
            assert (amap.matrix, amap.offset) == _probed_map(image, m)


def _taylor_inverse(gammas):
    """Ascending coefficients of the P with gamma_j(e^x P) = gammas[j]:
    gamma_j = sum_{i <= j} P_i j!/(j-i)! is triangular in P."""
    p = []
    for j, g in enumerate(gammas):
        p.append((g - sum(c * math.perm(j, i) for i, c in enumerate(p))) / math.factorial(j))
    return p


def _composed_point(mode, dim, k, convention, rng):
    """(c, sigma) for dim random rational factor offsets a_i, built from
    the composition itself and not from the maps' matrices.

    finite: the core of the SSC of the factors (x+1)^(dim+k-1) (x+a_i),
    and the elementary symmetric values of the a_i.  exp: P from the
    Taylor numerators gamma_j = prod (1 + j/a_i) (normalized) or
    prod (j + a_i) (monic), and the symmetric values of the 1/a_i or a_i.
    """
    offsets = [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5)) for _ in range(dim)]
    if mode == "finite":
        p = composition_factor(dim, k, offsets[0])
        for a in offsets[1:]:
            p = compose(p, composition_factor(dim, k, a), SscContext(dim + k))
        return extract_core(p, dim, k), _elementary_symmetric(offsets)
    if convention == NORMALIZED:
        p = _taylor_inverse([math.prod(1 + j / a for a in offsets) for j in range(dim + 1)])
        return tuple(p[1:]), _elementary_symmetric([1 / a for a in offsets])
    p = _taylor_inverse([math.prod(j + a for a in offsets) for j in range(dim + 1)])
    return tuple(p[-2::-1]), _elementary_symmetric(offsets)


def test_decomposition_map_matches_the_composed_factors():
    # dim + 1 affinely independent points fix an affine map of dimension dim
    rng = random.Random(50)
    cases = [("finite", n, k, None) for n, k in _MAP_SIZES]
    cases += [("exp", m, None, conv) for m in range(1, 7) for conv in (NORMALIZED, MONIC)]
    for mode, dim, k, convention in cases:
        if mode == "finite":
            amap = decomposition_map(mode, n=dim, k=k)
        else:
            amap = decomposition_map(mode, m=dim, convention=convention)
        points = [_composed_point(mode, dim, k, convention, rng) for _ in range(dim + 1)]
        for c, sigma in points:
            assert amap.apply(c) == sigma, (mode, dim, k, convention)
        base = points[0][0]
        steps = [[x - y for x, y in zip(c, base)] for c, _ in points[1:]]
        assert AffineMap(tuple(map(tuple, steps)), (F(0),) * dim).invertible


def test_decomposition_map_rejects_bad_parameters():
    for n, k in [(0, 2), (2, 0), (-1, 3)]:
        with pytest.raises(ValueError):
            decomposition_map("finite", n=n, k=k)
    with pytest.raises(ValueError):
        decomposition_map("exp", m=0)
    with pytest.raises(ValueError):
        decomposition_map("exp", m=2, convention="nope")


def _reference_apply(amap, c):
    """AffineMap.apply as a Fraction sum, row by row."""
    vec = [F(x) for x in c]
    return tuple(
        sum((row[j] * vec[j] for j in range(len(vec))), start=off)
        for row, off in zip(amap.matrix, amap.offset)
    )


def test_affine_map_apply_matches_the_fraction_sum_reference():
    rng = random.Random(83)

    def entry():
        return rng.choice([0, rng.randint(-9, 9), F(rng.randint(-99, 99), rng.randint(1, 40))])

    for _ in range(40):
        dim = rng.randint(1, 6)
        amap = AffineMap(
            matrix=tuple(tuple(F(entry()) for _ in range(dim)) for _ in range(dim)),
            offset=tuple(F(entry()) for _ in range(dim)),
        )
        for _ in range(5):
            c = [entry() for _ in range(dim)]
            got = amap.apply(c)
            assert got == _reference_apply(amap, c)
            assert all(type(v) is F for v in got)
    for amap in [
        decomposition_map("finite", n=4, k=3),
        decomposition_map("exp", m=5, convention=MONIC),
    ]:
        for _ in range(10):
            c = _rand_vec(rng, amap.dimension, 50)
            assert amap.apply(c) == _reference_apply(amap, c)


def _reference_det(matrix):
    """Determinant by Gaussian elimination in Fractions, with row swaps."""
    rows = [[F(v) for v in row] for row in matrix]
    det = F(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col] / rows[col][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def test_affine_map_determinant_matches_fraction_elimination():
    rng = random.Random(84)

    def entry():
        return rng.choice([0, rng.randint(-9, 9), F(rng.randint(-99, 99), rng.randint(1, 40))])

    for _ in range(80):
        dim = rng.randint(1, 6)
        # rows with a common factor, and now and then a zero or repeated row
        matrix = [[F(entry()) * f for _ in range(dim)] for f in rng.choices(range(1, 13), k=dim)]
        shape = rng.randrange(3)
        if shape == 1:
            matrix[rng.randrange(dim)] = [F(0)] * dim
        elif shape == 2:
            matrix[rng.randrange(dim)] = [v * rng.randint(-5, 5) for v in matrix[0]]
        amap = AffineMap(tuple(map(tuple, matrix)), tuple(F(entry()) for _ in range(dim)))
        assert amap.determinant() == _reference_det(amap.matrix)
    for n, k in _MAP_SIZES:
        amap = decomposition_map("finite", n=n, k=k)
        assert amap.determinant() == _reference_det(amap.matrix), (n, k)


def test_phi_determinant_is_the_closed_form_product():
    for n in range(1, 11):
        for k in range(1, 11):
            bareiss = decomposition_map("finite", n=n, k=k).determinant()
            assert decompose_module._phi_determinant(n, k) == bareiss, (n, k)


_FINITE_MAP = decomposition_map("finite", n=2, k=1)


@pytest.mark.parametrize(
    "value, same, other",
    [
        (
            _FINITE_MAP,
            AffineMap(_FINITE_MAP.matrix, _FINITE_MAP.offset),
            decomposition_map("finite", n=2, k=2),
        ),
        (SscContext(3), SscContext(3), SscContext(4)),
        (
            ExpPoly(Poly([1, Fraction(1, 2)])),
            ExpPoly(Poly([Fraction(2, 2), Fraction(1, 2)])),
            ExpPoly(Poly([1, Fraction(1, 3)])),
        ),
    ],
    ids=["AffineMap", "SscContext", "ExpPoly"],
)
def test_value_types_compare_hash_and_print_by_value(value, same, other):
    assert value is not same
    assert value == same and hash(value) == hash(same)
    assert value != other and len({value, same, other}) == 2
    assert value != value.__class__.__name__  # other types are never equal
    names = {"AffineMap": AffineMap, "SscContext": SscContext, "ExpPoly": ExpPoly,
             "Poly": Poly, "Fraction": Fraction}
    assert eval(repr(value), names) == value
