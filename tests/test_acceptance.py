"""Acceptance gate: one test per criterion, one printed line per result.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Boundary matrices produced along the way are recorded
so the final structural-sanity criterion can re-verify them.
"""

import bisect
import functools
import itertools
import math
import random
import sys
import time
import tracemalloc

import numpy as np
import pytest

from lpnerve.analysis import h1_generators, p_critical
from lpnerve.chain import (CUSTOM_GRID, EMPTY, STRICT_PREDECESSORS, SieveSpec,
                           boundary_matrix, generators_at)
from lpnerve.homology import (Bar, Coefficients, GF2, INTEGERS, homology_at,
                              homology_table, magnitude_homology,
                              persistence_barcode, vr_oracle)
from lpnerve.nerve import enumerate_complex, membership_scale
from lpnerve.snf import smith_normal_form
from lpnerve.values import INF, close
from lpnerve.vgraph import (GraphMorphism, VGraph, check_morphism, coequalizer,
                            coproduct, delta_path, equalizer, free_category,
                            gamma_path, is_enriched_category, product,
                            tolerance)
from util import (columns_to_dense, coproduct_injections, decode_codes,
                  dense_boundary, dense_to_columns, direct_local_boundary,
                  direct_local_generators, graphs_equal, index_at, levels,
                  magnitude_series, morphisms, orbit_representatives,
                  p_closure, path_closure, product_projections,
                  random_floors, random_honest_space, random_l1_space,
                  random_real_honest_space, random_ultrametric,
                  random_vgraph, sigma_oracle, sigma_oracle_chains,
                  sweep_four_vertex, unique_factorization)

GLOBAL = SieveSpec(EMPTY)
STRICT = SieveSpec(STRICT_PREDECESSORS)

#: dense boundary pairs accumulated for the structural-sanity criterion
RECORDED = []
#: complexes accumulated for Euler and determinism checks
SPACES = []


def record(fc, sieve, g, degree):
    RECORDED.append((dense_boundary(fc, degree, g, sieve),
                     dense_boundary(fc, degree + 1, g, sieve)))


def report(num, ok, text, started):
    took = time.time() - started
    line = (f"criterion {num:2d} {'PASS' if ok else 'FAIL'} "
            f"({took:5.1f}s): {text}")
    # the real stdout, so the line survives pytest's output capture
    print(line, file=sys.__stdout__)
    assert ok


def test_criterion_1_vr_equivalence():
    started = time.time()
    rng = random.Random(101)
    for _ in range(20):
        X = random_honest_space(rng, rng.randint(2, 8))
        SPACES.append((X, INF))
        fc = enumerate_complex(X, INF, 3)
        ours = persistence_barcode(fc, 2, GF2)
        theirs = vr_oracle(X, 2)
        assert ours.bars == theirs.bars
        for g in range(len(fc.grades)):
            record(fc, GLOBAL, g, 1)
    assert time.time() - started < 30
    report(1, True, "tuple-nerve barcodes at p=inf match the classical "
           "Vietoris-Rips oracle on 20 spaces", started)


def test_criterion_2_ultrametric_triviality():
    started = time.time()
    rng = random.Random(103)
    for _ in range(20):
        U = random_ultrametric(rng, rng.randint(2, 10))
        fc = enumerate_complex(U, INF, 3)
        bc = persistence_barcode(fc, 2, GF2)
        assert bc.in_degree(1) == []
        assert bc.in_degree(2) == []
    assert time.time() - started < 30
    report(2, True, "no degree-1 or degree-2 bars on 20 random "
           "ultrametrics", started)


def test_criterion_3_h1_characterization():
    started = time.time()
    rng = random.Random(107)
    for _ in range(20):
        X = random_honest_space(rng, rng.randint(2, 8))
        for p in (1.0, 1.5, 2.0):
            fc = enumerate_complex(X, p, 2)
            SPACES.append((X, p))
            for g, r in enumerate(fc.grades):
                h = homology_at(fc, 1, g, STRICT, INTEGERS)
                gens = h1_generators(X, p, r) if r > 0 else []
                assert h.rank == len(gens)
                assert h.torsion == ()
                record(fc, STRICT, g, 1)
    assert time.time() - started < 60
    report(3, True, "localized degree-1 rank equals the pair count with "
           "empty torsion for p in {1, 1.5, 2} on 20 spaces", started)


def test_criterion_4_sigma_oracle():
    started = time.time()
    rng = random.Random(109)
    lp_budget = 150  # secondary spot-check against the external LP solver
    lp_done = 0
    for _ in range(50):
        X = random_vgraph(rng, rng.randint(2, 5))
        for p in (1.0, 1.3, 2.0, INF):
            for degree in (1, 2, 3):
                for tup in itertools.product(X.vertices, repeat=degree + 1):
                    got = membership_scale(X, tup, p)
                    want = sigma_oracle_chains(X, tup, p)
                    if math.isinf(want):
                        assert math.isinf(got)
                    else:
                        assert abs(got - want) <= 1e-6
                        if lp_done < lp_budget and rng.random() < 0.002:
                            lp = sigma_oracle(X, tup, p)
                            assert abs(got - lp) <= 1e-6
                            lp_done += 1
    assert time.time() - started < 30
    report(4, True, "chain DP matches the exhaustive witness oracle on all "
           f"tuples of degree <= 3 over 50 graphs (plus {lp_done} LP "
           "spot-checks)", started)


def test_criterion_5_subfunctor_inclusion():
    started = time.time()
    rng = random.Random(113)
    ps = [1.0, 1.5, 2.0, 4.0, INF]
    for _ in range(8):
        X = random_vgraph(rng, rng.randint(2, 5))
        complexes = {p: enumerate_complex(X, p, 2) for p in ps}
        births = {
            p: {verts: b for level in levels(complexes[p])
                for b, verts in level}
            for p in ps
        }
        for lo, hi in zip(ps, ps[1:]):
            # sigma is nonincreasing in p on every enumerated tuple
            for verts, b in births[lo].items():
                assert births[hi].get(verts, INF) <= b + 1e-9
        grades = sorted({g for p in ps for g in complexes[p].grades})
        def at(p, r):
            fc = complexes[p]
            return {verts for n in range(3) for verts in fc.labels(
                n, generators_at(fc, n, index_at(fc, r), GLOBAL))}

        for p in ps[:-1]:
            for r in grades:
                at_p = at(p, r)
                at_max = at(INF, r)
                assert at_p <= at_max
    assert time.time() - started < 10
    report(5, True, "sigma_p nonincreasing in p and N_p included in N_max "
           "at every critical grade", started)


def _decode_code(code):
    vals = [0.0, 1.0, 2.0, INF]
    mat = np.zeros((4, 4))
    c = code
    for i in range(4):
        for j in range(4):
            if i != j:
                mat[i, j] = vals[c & 3]
                c >>= 2
    return VGraph(["a", "b", "c", "d"], mat)


def _decode_code3(code):
    vals = [0.0, 1.0, 2.0, INF]
    mat = np.zeros((3, 3))
    c = code
    for i in range(3):
        for j in range(3):
            if i != j:
                mat[i, j] = vals[c % 4]
                c //= 4
    return VGraph(["a", "b", "c"], mat)


def _lifting_suite_one(X, p):
    """Closure laws plus the lift characterization through the morphism API."""
    C = free_category(X, p)
    assert graphs_equal(free_category(C, p), C)
    assert np.all((C.dist <= X.dist + 1e-9) | np.isinf(X.dist))
    assert is_enriched_category(C, p, 1e-6)
    lifts = True
    for tup in itertools.product(X.vertices, repeat=3):
        rs = [X.d(tup[i], tup[i + 1]) for i in range(2)]
        vmap = {f"x{i}": v for i, v in enumerate(tup)}
        assert check_morphism(GraphMorphism(gamma_path(rs), X, vmap))
        if not check_morphism(GraphMorphism(delta_path(rs, p), X, vmap)):
            lifts = False
    assert lifts == is_enriched_category(X, p)
    assert lifts == graphs_equal(C, X, 1e-6)
    return C


def test_criterion_6_four_vertex_sweep():
    """The closure laws on every 4-vertex graph over {0, 1, 2, inf}, up to
    relabeling: each law and each closure commutes with relabeling the
    vertices, so one code per orbit covers every graph."""
    started = time.time()
    tracemalloc.start()
    codes = orbit_representatives()
    # Burnside: a relabeling of cycle type 1^4, 2 1^2, 2^2, 3 1, 4 fixes
    # 4^(cycles on the 12 entries) codes
    assert len(codes) == (4 ** 12 + 6 * 4 ** 7 + 3 * 4 ** 6 + 8 * 4 ** 4
                          + 6 * 4 ** 3) // 24 == 703_760
    failures, first_bad = sweep_four_vertex(codes)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert failures == 0, f"first failing code {first_bad}"
    # both passes work in chunks; unchunked, the search alone takes 700 MB
    assert peak < 200 * 2 ** 20
    # the sweep's closure agrees with the library closure on a sample
    rng = random.Random(127)
    for _ in range(200):
        code = rng.randrange(4 ** 12)
        X = _decode_code(code)
        d = decode_codes([code])
        assert np.array_equal(d[0], X.dist)
        for p in (1.0, 2.0, INF):
            C = free_category(X, p)
            assert np.allclose(np.nan_to_num(p_closure(d, p)[0], posinf=1e30),
                               np.nan_to_num(C.dist, posinf=1e30), atol=1e-9)
    assert time.time() - started < 60
    report(6, True, f"closure laws over all 16.7M 4-vertex graphs "
           f"({len(codes)} relabeling orbits)", started)


def test_criterion_6_sweep_catches_a_skipped_pivot():
    """A closure that never routes through the last vertex breaks the laws
    exactly where it differs from the true closure: its result then fails
    its own triangle inequality.  The sweep must report all of those
    codes, the first one first."""
    codes = np.arange(4 ** 6, dtype=np.int32)
    skipped = functools.partial(path_closure, pivots=range(3))
    d = decode_codes(codes)
    differs = np.zeros(len(codes), dtype=bool)
    for p in (1.0, 2.0, INF):
        differs |= np.any(p_closure(d, p, skipped) != p_closure(d, p),
                          axis=(1, 2))
    failures, first_bad = sweep_four_vertex(codes, skipped, chunk=1000)
    assert failures == np.count_nonzero(differs) > 0
    assert first_bad == codes[differs][0]
    assert sweep_four_vertex(codes) == (0, -1)


def test_criterion_6_lifting_suite():
    started = time.time()
    # exhaustive API-level checks on every graph with <= 3 vertices
    for code in range(4 ** 6):
        X = _decode_code3(code)
        for p in (1.0, 2.0, INF):
            C = free_category(X, p)
            assert graphs_equal(free_category(C, p), C)
            assert np.all((C.dist <= X.dist + 1e-9) | np.isinf(X.dist))
            assert is_enriched_category(C, p, 1e-6)
            assert graphs_equal(C, X, 1e-6) == is_enriched_category(X, p, 1e-6)
    # full lifting machinery on a deterministic slice plus all 2-vertex graphs
    for code in range(0, 4 ** 6, 41):
        X = _decode_code3(code)
        for p in (1.0, 2.0, INF):
            _lifting_suite_one(X, p)
    for d_ab in (0.0, 1.0, 2.0, INF):
        for d_ba in (0.0, 1.0, 2.0, INF):
            X = VGraph(["a", "b"], np.array([[0.0, d_ab], [d_ba, 0.0]]))
            for p in (1.0, 2.0, INF):
                _lifting_suite_one(X, p)
    # reflection: morphisms into a category factor through the closure
    rng = random.Random(131)
    targets = [free_category(_decode_code3(rng.randrange(4 ** 6)), 1.0)
               for _ in range(5)]
    for _ in range(25):
        X = _decode_code3(rng.randrange(4 ** 6))
        C = free_category(X, 1.0)
        for A in targets:
            for f in morphisms(X, A):
                assert check_morphism(GraphMorphism(C, A, dict(f.map)))
    assert time.time() - started < 60
    report(6, True, "closure laws and lift characterization over all 4096 "
           "3-vertex graphs", started)


def _fast_up_product(Xs, apexes):
    P = product(Xs)
    projs = product_projections(Xs, P)
    assert all(check_morphism(pr) for pr in projs)
    for T in apexes:
        legs = [morphisms(T, X) for X in Xs]
        # signature of a candidate: its projected legs, vertex by vertex
        signatures = {}
        for u in morphisms(T, P):
            sig = tuple(
                tuple(pr(u(t)) for t in T.vertices) for pr in projs
            )
            signatures[sig] = signatures.get(sig, 0) + 1
        for family in itertools.product(*legs):
            sig = tuple(tuple(f(t) for t in T.vertices) for f in family)
            assert signatures.get(sig, 0) == 1


def _fast_up_coproduct(Xs, targets):
    C = coproduct(Xs)
    injs = coproduct_injections(Xs, C)
    assert all(check_morphism(i) for i in injs)
    for T in targets:
        legs = [morphisms(X, T) for X in Xs]
        signatures = {}
        for u in morphisms(C, T):
            sig = tuple(
                tuple(u(inj(x)) for x in inj.source.vertices) for inj in injs
            )
            signatures[sig] = signatures.get(sig, 0) + 1
        for family in itertools.product(*legs):
            sig = tuple(tuple(f(x) for x in f.source.vertices)
                        for f in family)
            assert signatures.get(sig, 0) == 1


def _check_eq_coeq(f, g, pool):
    E, incl = equalizer(f, g)
    assert check_morphism(incl)
    Q, proj = coequalizer(f, g)
    assert check_morphism(proj)
    for T in pool:
        cands_e = morphisms(T, E)
        for h in morphisms(T, f.source):
            if all(f(h(t)) == g(h(t)) for t in T.vertices):
                assert unique_factorization(
                    cands_e, lambda u, h=h: all(incl(u(t)) == h(t)
                                                for t in T.vertices))
        cands_q = morphisms(Q, T)
        for h in morphisms(f.target, T):
            if all(h(f(x)) == h(g(x)) for x in f.source.vertices):
                assert unique_factorization(
                    cands_q, lambda u, h=h: all(u(proj(y)) == h(y)
                                                for y in f.target.vertices))


def test_criterion_7_universal_properties():
    started = time.time()
    two_vertex = [VGraph.point("t")]
    for d_ab in (0.0, 1.0, INF):
        for d_ba in (0.0, 1.0, INF):
            two_vertex.append(
                VGraph(["s", "t"], np.array([[0.0, d_ab], [d_ba, 0.0]])))
    apexes = two_vertex[:5]
    # exhaustive over every 1-, 2-, and 3-object diagram of 2-vertex graphs
    diagrams = 0
    for k in (1, 2, 3):
        for Xs in itertools.combinations_with_replacement(two_vertex, k):
            _fast_up_product(list(Xs), apexes)
            _fast_up_coproduct(list(Xs), apexes)
            diagrams += 2
    # all parallel morphism pairs between 2-vertex graphs
    pairs = 0
    for X, Y in itertools.product(two_vertex[1:], repeat=2):
        ms = morphisms(X, Y)
        for f, g in itertools.product(ms, repeat=2):
            _check_eq_coeq(f, g, apexes[:3])
            pairs += 1
    # deterministic sample of diagrams containing 3-vertex graphs
    rng = random.Random(137)
    three_vertex = []
    alphabet = [0.0, 1.0, INF]
    for _ in range(12):
        mat = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                if i != j:
                    mat[i, j] = rng.choice(alphabet)
        three_vertex.append(VGraph(["u", "v", "w"], mat))
    for _ in range(25):
        Xs = [rng.choice(three_vertex + two_vertex)
              for _ in range(rng.randint(1, 3))]
        _fast_up_product(Xs, apexes[:3])
        _fast_up_coproduct(Xs, apexes[:3])
        diagrams += 2
    assert time.time() - started < 60
    report(7, True, f"universal properties verified on {diagrams} "
           f"(co)product diagrams and {pairs} parallel pairs", started)


def test_criterion_8_magnitude_nerve_identity():
    started = time.time()
    rng = random.Random(139)
    for _ in range(20):
        X = random_l1_space(rng, rng.randint(2, 5))
        fc = enumerate_complex(X, 1.0, 3)
        for g, r in enumerate(fc.grades):
            for n in (1, 2):
                gens = generators_at(fc, n, g, STRICT)
                assert fc.labels(n, gens) == \
                    direct_local_generators(X, 1.0, r, n)
            rows, cols, entries = direct_local_boundary(X, 1.0, r, 2)
            M = boundary_matrix(fc, 2, g, STRICT)
            assert fc.labels(1, generators_at(fc, 1, g, STRICT)) == rows
            assert fc.labels(2, generators_at(fc, 2, g, STRICT)) == cols
            assert len(M[0]) == len(cols)
            assert columns_to_dense(M, len(rows)) == entries
            record(fc, STRICT, g, 1)
    assert time.time() - started < 10
    report(8, True, "localized generators and boundaries equal the direct "
           "fixed-length construction on 20 spaces", started)


def test_criterion_9_worked_examples():
    started = time.time()
    c4 = VGraph(["a", "b", "c", "d"], np.array([
        [0.0, 1.0, 2.0, 1.0],
        [1.0, 0.0, 1.0, 2.0],
        [2.0, 1.0, 0.0, 1.0],
        [1.0, 2.0, 1.0, 0.0],
    ]))
    # frozen: the 4-cycle carries a single degree-1 bar (1, 2)
    fc = enumerate_complex(c4, INF, 3)
    assert persistence_barcode(fc, 2, GF2).in_degree(1) == [Bar(1, 1.0, 2.0)]
    assert vr_oracle(c4, 2).in_degree(1) == [Bar(1, 1.0, 2.0)]  # oracle route
    # frozen: localized degree-1 ranks 8 at grade 1 and 0 at grade 2
    ranks = {h.grade: h.rank for h in magnitude_homology(c4, 1.0, [1])}
    assert ranks == {1.0: 8, 2.0: 0}
    assert len(h1_generators(c4, 1.0, 1.0)) == 8  # characterization route
    assert len(h1_generators(c4, 1.0, 2.0)) == 0
    # oracle route: rank = generators minus the rank of the direct
    # fixed-length boundary (degree-0 survivors vanish above grade 0)
    for grade, expected in ((1.0, 8), (2.0, 0)):
        gens1 = direct_local_generators(c4, 1.0, grade, 1)
        _, _, entries = direct_local_boundary(c4, 1.0, grade, 2)
        rank2, _ = smith_normal_form(*dense_to_columns(entries))
        assert len(gens1) - rank2 == expected

    # frozen: 3-4-5 triangle splits exactly at p = 2
    tri = VGraph(["a", "b", "c"], np.array([
        [0.0, 5.0, 3.0],
        [5.0, 0.0, 4.0],
        [3.0, 4.0, 0.0],
    ]))
    pc = p_critical(tri, "a", "b")
    assert abs(pc - 2.0) <= 1e-4
    # oracle route: dense feasibility scan brackets the same exponent
    assert 3.0 ** 1.999 + 4.0 ** 1.999 > 5.0 ** 1.999
    assert 3.0 ** 2.001 + 4.0 ** 2.001 < 5.0 ** 2.001

    # frozen: collinear 0, 1, 2 is additive from the start
    line = VGraph(["a", "b", "c"], np.array([
        [0.0, 1.0, 2.0],
        [1.0, 0.0, 1.0],
        [2.0, 1.0, 0.0],
    ]))
    assert p_critical(line, "a", "c") == 1.0
    ranks = {h.grade: h.rank for h in magnitude_homology(line, 1.0, [1])}
    assert ranks[1.0] == 4
    assert len(h1_generators(line, 1.0, 1.0)) == 4
    assert time.time() - started < 5
    report(9, True, "all frozen worked-example values reproduced through "
           "both routes", started)


def test_criterion_10_automaton_bridge():
    from lpnerve.automata import (Automaton, Transition, cost_primitive_pairs,
                                  cost_space, strictify)
    started = time.time()
    rng = random.Random(149)
    checked = 0
    for _ in range(20):
        n = rng.randint(2, 6)
        states = [f"s{i}" for i in range(n)]
        alphabet = {"a": 0.5, "b": 1.0, "c": 1.75, "d": 2.5}
        transitions = [
            Transition(rng.choice(states), rng.choice(states),
                       "".join(rng.choice("abcd")
                               for _ in range(rng.randint(1, 3))))
            for _ in range(rng.randint(1, 12))
        ]
        A = Automaton(states, alphabet, transitions)
        S, _ = strictify(cost_space(A))
        assert S.is_strict()
        prims = cost_primitive_pairs(S)
        grades = sorted({r for (_, _, r) in prims})
        fc = enumerate_complex(S, 1.0, 2)
        for g, r in enumerate(fc.grades):
            if r == 0.0:
                continue
            at_grade = {(a, b) for (a, b, s) in prims if close(s, r)}
            assert at_grade == set(h1_generators(S, 1.0, r))
            h = homology_at(fc, 1, g, STRICT, INTEGERS)
            assert h.rank == len(at_grade)
            assert h.torsion == ()
            record(fc, STRICT, g, 1)
            checked += 1
        assert all(any(close(g, r) for r in fc.grades) for (_, _, g) in prims)
    assert time.time() - started < 60
    report(10, True, f"cost-primitive pairs equal the localized degree-1 "
           f"generator pairs at {checked} grades over 20 automata", started)


def test_criterion_11_structural_sanity():
    started = time.time()
    if len(RECORDED) < 50:
        # running standalone: repopulate with representative spaces
        rng = random.Random(151)
        for _ in range(10):
            X = random_honest_space(rng, rng.randint(3, 6))
            for p in (1.0, INF):
                fc = enumerate_complex(X, p, 2)
                SPACES.append((X, p))
                for g in range(len(fc.grades)):
                    record(fc, GLOBAL, g, 1)
                    record(fc, STRICT, g, 1)
    # every boundary pair recorded by criteria 1-10 composes to zero
    assert len(RECORDED) > 50
    for A, B in RECORDED:
        assert A.shape[1] == B.shape[0]
        assert not np.any(A @ B)
    # Euler consistency at every grade of the accumulated spaces
    for X, p in SPACES[:10]:
        fc = enumerate_complex(X, p, 2)
        for g in range(len(fc.grades)):
            counts = [len(generators_at(fc, n, g, GLOBAL)) for n in range(2)]
            h = [homology_at(fc, n, g, GLOBAL).rank for n in range(2)]
            rank2, _ = smith_normal_form(*boundary_matrix(fc, 2, g, GLOBAL))
            assert counts[0] - counts[1] + rank2 == h[0] - h[1]
    # determinism across repeated runs
    for X, p in SPACES[:6]:
        a = enumerate_complex(X, p, 2)
        b = enumerate_complex(X, p, 2)
        assert levels(a) == levels(b)
        bc1 = persistence_barcode(a, 1, GF2)
        bc2 = persistence_barcode(b, 1, GF2)
        assert bc1.bars == bc2.bars
    report(11, True, f"dd = 0 on {len(RECORDED)} recorded boundary pairs, "
           "Euler consistency at every grade, deterministic across repeated "
           "runs", started)


def test_criterion_12_magnitude_euler_characteristic():
    """Sum_n (-1)^n rank MH_{n,l} is the q^l coefficient of the magnitude
    sum(Z(q)^-1), for real distances: the series is keyed by grade index
    through ``fc.grades`` at the complex's own tolerance."""
    started = time.time()
    rng = random.Random(157)
    checked = 0
    for _ in range(6):
        X = random_real_honest_space(rng, rng.randint(3, 6))
        # hops are at least 1, so grades below 4 have tuples of degree <= 3
        fc = enumerate_complex(X, 1.0, 4)
        grades = fc.grades[:bisect.bisect_left(fc.grades, 4.0)]
        assert any(r != int(r) for r in grades)
        euler = _localized_euler(X, 1.0, fc, len(grades))
        assert euler == magnitude_series(X, grades, tolerance(X))
        checked += len(grades)
    assert time.time() - started < 30
    report(12, True, f"localized Euler characteristics equal the magnitude "
           f"series at {checked} real grades over 6 spaces", started)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0], ids=["1.5", "2", "3"])
def test_criterion_12_euler_characteristic_at_finite_p(p):
    """The same check at finite p on X = Y^(1/p), Y an integer space with
    the additive triangle inequality.  X is +_p-enriched, so a tuple's
    longest chain is its consecutive one and its birth to the p-th power
    is its length in Y; the strict sieve of X at g is the strict sieve of
    Y at g^p, and the Euler characteristics are Y's magnitude series at
    the grades raised to the p-th power."""
    started = time.time()
    rng = random.Random(163)
    checked = 0
    for _ in range(6):
        Y = random_honest_space(rng, rng.randint(3, 6), hi=3)
        X = VGraph(list(Y.vertices), Y.dist ** (1 / p))
        assert is_enriched_category(X, p)
        # Y-hops are at least 1, so Y-lengths below 6 have degree <= 5
        fc = enumerate_complex(X, p, 6)
        grades = [g for g in fc.grades if round(g ** p) < 6]
        euler = _localized_euler(X, p, fc, len(grades))
        assert euler == magnitude_series(Y, [g ** p for g in grades],
                                         tolerance(Y))
        checked += len(grades)
    assert time.time() - started < 30
    report(12, True, f"localized Euler characteristics at p = {p:g} equal "
           f"the magnitude series at {checked} grades over 6 spaces", started)


def _relative_count(bars, index, n, floor, g):
    """dim H_n(F_g, F_{floor - 1}) read off a barcode by the long exact
    sequence of the pair: the n-bars born in floor..g and alive after g,
    plus the (n-1)-bars born before floor that die in floor..g.  Births
    and deaths are taken as grade indices through ``index``."""
    born = lambda b: index[b.birth]
    dies = lambda b: math.inf if b.death == INF else index[b.death]
    return (sum(1 for b in bars if b.degree == n
                and floor <= born(b) <= g < dies(b))
            + sum(1 for b in bars if b.degree == n - 1
                  and born(b) < floor <= dies(b) <= g))


def test_criterion_13_localized_field_tables_are_relative_persistence():
    """Over a field the sieve with floor f at grade g is the quotient
    F_g / F_{f-1} of the filtered nerve, so its table is relative
    homology, read off the one global barcode.  Checked under the strict,
    empty and a random custom sieve, over GF(2) and GF(3), on random
    honest and asymmetric spaces."""
    started = time.time()
    rng = random.Random(167)
    checked = 0
    for make in (random_honest_space, random_vgraph):
        for _ in range(5):
            X = make(rng, rng.randint(3, 5))
            for p in (1.0, 2.0, INF):
                fc = enumerate_complex(X, p, 3)
                index = {v: g for g, v in enumerate(fc.grades)}
                floors = random_floors(rng, len(fc.grades))
                for q in (2, 3):
                    bars = persistence_barcode(fc, 2, Coefficients(q)).bars
                    for sieve in (STRICT, GLOBAL,
                                  SieveSpec(CUSTOM_GRID, floors)):
                        table = {(h.grade, h.degree): h.rank for h in
                                 homology_table(fc, range(3), sieve,
                                                Coefficients(q))}
                        for g in range(len(fc.grades)):
                            for n in range(3):
                                assert table.get((fc.grades[g], n), 0) == \
                                    _relative_count(bars, index, n,
                                                    sieve.floor(g), g)
                                checked += 1
    assert time.time() - started < 30
    report(13, True, f"localized tables over GF(2) and GF(3) equal the "
           f"relative persistence counts of the barcode in {checked} cells "
           f"(strict, empty and custom sieves)", started)


def _localized_euler(X, p, fc, count):
    """Sum_n (-1)^n rank MH_n at each of the first ``count`` grade indices
    of ``fc``, over every degree below ``fc.max_dim``."""
    euler = [0] * count
    for h in magnitude_homology(X, p, range(fc.max_dim), max_dim=fc.max_dim):
        g = fc.grades.index(h.grade)
        if g < count:
            euler[g] += (-1) ** h.degree * h.rank
    return euler
