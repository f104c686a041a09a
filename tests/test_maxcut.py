"""Max-Cut spectra on complete bipartite graphs and round-count growth."""

import math

import numpy as np
import pytest

import oracles
from thqaoa import maxcut
from thqaoa.errors import DomainError
from thqaoa.maxcut import (
    MAX_BRUTE_FORCE_VERTICES,
    MAX_PART_SIZE,
    GraphInstance,
    bipartite_spectrum,
    brute_force_spectrum,
    complete_bipartite_instance,
    knn_spectrum,
    min_rounds_for_ratio,
    read_edge_list,
)


# ---------------------------------------------------------------------------
# Exact K_{n,n} spectra
# ---------------------------------------------------------------------------


def test_bipartite_spectrum_invariants():
    for n in (1, 2, 3, 7, 40, 100):
        spec = bipartite_spectrum(n)
        counts = [c for _, c in spec.atoms]
        values = [v for v, _ in spec.atoms]
        assert spec.M == 4**n
        assert sum(counts) == 4**n  # exact big-int identity
        assert values == sorted(values)
        assert all(c > 0 for c in counts)
        # mean-centered frame: symmetric spectrum, minimum -n^2/2 twice
        assert values[0] == -(n * n) / 2.0
        assert counts[0] == 2
        assert values[-1] == (n * n) / 2.0
        assert counts[-1] == 2
        paired = {(-v) for v, _ in spec.atoms}
        assert paired == set(values)


def test_knn_law_frames():
    for n in (2, 5, 12):
        law_y = knn_spectrum(n, frame="y")
        law_x = knn_spectrum(n, frame="x")
        assert law_y.mean == pytest.approx(0.0, abs=1e-12)
        assert law_x.mean == pytest.approx(-(n * n) / 2.0, abs=1e-12)
        assert law_y.std == pytest.approx(law_x.std, abs=1e-12)
        assert law_x.spectrum.values[0] == -(n * n)
        shift = (n * n) / 2.0
        assert np.allclose(law_x.spectrum.values + shift, law_y.spectrum.values)
    with pytest.raises(DomainError):
        knn_spectrum(3, frame="z")


def test_knn_matches_brute_force_small():
    for n in (1, 2, 3, 4, 5):
        law = knn_spectrum(n, frame="x")
        edges = oracles.complete_bipartite_edges(n)
        ref_counts = oracles.maxcut_cut_counts(2 * n, edges)
        ref_pairs = sorted(
            (-float(size), int(c)) for size, c in ref_counts.items() if c > 0
        )
        got_pairs = list(zip(law.spectrum.values.tolist(), law.multiplicities))
        assert got_pairs == ref_pairs


def test_brute_force_spectrum_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(8):
        nv = int(rng.integers(3, 9))
        possible = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
        take = rng.permutation(len(possible))[: max(2, len(possible) // 2)]
        edges = [possible[i] for i in sorted(take)]
        graph = GraphInstance(num_vertices=nv, edges=tuple(edges))
        law = brute_force_spectrum(graph, frame="x")
        ref = oracles.maxcut_cut_counts(nv, edges)
        got = dict(zip((-v for v in law.spectrum.values.tolist()), law.multiplicities))
        assert got == {float(k): v for k, v in ref.items() if v > 0}
        # centered frame shifts by |E|/2 exactly
        law_y = brute_force_spectrum(graph, frame="y")
        assert law_y.mean == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(
            law_y.spectrum.values, law.spectrum.values + graph.num_edges / 2.0
        )


def test_brute_force_agrees_with_closed_form_bipartite():
    for n in range(1, 9):
        direct = brute_force_spectrum(complete_bipartite_instance(n), frame="y")
        closed = knn_spectrum(n, frame="y")
        assert np.allclose(direct.spectrum.values, closed.spectrum.values)
        assert direct.multiplicities == closed.multiplicities


def test_folded_spectrum_equals_literal_tally():
    # the symmetry fold against the (n + 1)^2 double loop: same atoms,
    # same float bits (no -0.0), same exact counts
    for n in (*range(1, 121), 299, MAX_PART_SIZE):
        atoms = bipartite_spectrum(n).atoms
        reference = oracles.bipartite_tally_reference(n)
        assert [(v.hex(), c) for v, c in atoms] == [(v.hex(), c) for v, c in reference], n


def test_spectrum_part_size_limits():
    with pytest.raises(DomainError):
        bipartite_spectrum(0)
    with pytest.raises(DomainError):
        bipartite_spectrum(MAX_PART_SIZE + 1)
    # the acceptance scale must stay cheap: n = 100 in well under a second
    law = knn_spectrum(100)
    assert law.total_count == 4**100


# ---------------------------------------------------------------------------
# Graph containers
# ---------------------------------------------------------------------------


def test_graph_instance_validation():
    GraphInstance(3, ((0, 1), (1, 2)))  # fine
    with pytest.raises(DomainError):
        GraphInstance(0, ())
    with pytest.raises(DomainError):
        GraphInstance(3, ((0, 0),))
    with pytest.raises(DomainError):
        GraphInstance(3, ((0, 3),))
    with pytest.raises(DomainError):
        GraphInstance(3, ((0, 1), (1, 0)))
    with pytest.raises(DomainError):
        GraphInstance(3, ((0,),))
    # normalization: endpoints stored ascending
    g = GraphInstance(4, ((3, 1),))
    assert g.edges == ((1, 3),)
    assert g.num_edges == 1


def test_brute_force_vertex_cap():
    big = GraphInstance(MAX_BRUTE_FORCE_VERTICES + 1, ((0, 1),))
    with pytest.raises(DomainError):
        brute_force_spectrum(big)


def test_read_edge_list(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("0 1\n\n2 1\n")
    g = read_edge_list(str(path))
    assert g.num_vertices == 3
    assert g.edges == ((0, 1), (1, 2))

    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1 2 3\n")
    with pytest.raises(DomainError) as err:
        read_edge_list(str(bad))
    assert ":2:" in str(err.value)

    neg = tmp_path / "neg.txt"
    neg.write_text("0 -1\n")
    with pytest.raises(DomainError):
        read_edge_list(str(neg))

    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(DomainError):
        read_edge_list(str(empty))


# ---------------------------------------------------------------------------
# Round counts for target ratios
# ---------------------------------------------------------------------------


def test_min_rounds_exact_ratio_closed_form():
    for n in range(4, 21):
        expected = math.isqrt(1 << (2 * n - 3))
        if expected * expected != (1 << (2 * n - 3)):
            expected += 1
        assert min_rounds_for_ratio(n, 1.0) == expected


def test_min_rounds_small_parts_exact_ratio():
    # 2n - 3 < 0 only at n = 1: a single round suffices
    assert min_rounds_for_ratio(1, 1.0) == 1
    assert min_rounds_for_ratio(2, 1.0) == math.isqrt(2) + 1  # ceil(sqrt(2))


def test_min_rounds_minimality_against_direct_scan():
    # the returned r reaches the ratio and r - 1 does not
    from thqaoa.bounds import max_amplification_floor
    from thqaoa.gmth import optimize_threshold

    law = knn_spectrum(6, frame="y")

    def achieved(r, kind):
        if kind == "max_amplification":
            e = max_amplification_floor(law, r).E_floor
        else:
            e = optimize_threshold(law, r).E_r
        return 0.5 - e / 36.0

    for kind in ("max_amplification", "gmth"):
        for lam in (0.6, 0.8, 0.95, 0.999):
            r_star = min_rounds_for_ratio(6, lam, bound_kind=kind)
            assert achieved(r_star, kind) >= lam
            if r_star > 1:
                assert achieved(r_star - 1, kind) < lam


def test_min_rounds_monotone_in_ratio_and_size():
    rounds = [min_rounds_for_ratio(8, lam) for lam in (0.55, 0.7, 0.9, 0.99, 1.0)]
    assert all(b >= a for a, b in zip(rounds, rounds[1:]))
    sizes = [min_rounds_for_ratio(n, 1.0) for n in (4, 6, 8, 10)]
    assert all(b > a for a, b in zip(sizes, sizes[1:]))


def test_min_rounds_gmth_exact_is_certainty_count():
    from thqaoa.gmth import min_rounds_exact_opt

    for n in (3, 5, 8):
        law = knn_spectrum(n, frame="y")
        assert min_rounds_for_ratio(n, 1.0, bound_kind="gmth") == max(
            1, min_rounds_exact_opt(law)
        )


def test_min_rounds_closed_form_builds_no_spectrum(monkeypatch):
    # lam = 1 under the amplification floor is a closed form in n
    expected = [min_rounds_for_ratio(n, 1.0) for n in (1, 5, 60)]

    def no_build(*args, **kwargs):
        raise AssertionError("spectrum built for a closed-form answer")

    monkeypatch.setattr(maxcut, "knn_spectrum", no_build)
    monkeypatch.setattr(maxcut, "bipartite_spectrum", no_build)
    assert [min_rounds_for_ratio(n, 1.0) for n in (1, 5, 60)] == expected


def test_min_rounds_on_prebuilt_law_matches_public_search():
    for n in (3, 7, 12):
        law = knn_spectrum(n, frame="y")
        for kind in ("max_amplification", "gmth"):
            for lam in (0.52, 0.8786, 16.0 / 17.0, 1.0):
                assert maxcut._min_rounds_on_law(law, n, lam, kind) == min_rounds_for_ratio(
                    n, lam, bound_kind=kind
                )
    with pytest.raises(DomainError):
        maxcut._min_rounds_on_law(knn_spectrum(5), 5, 0.5, "magic")


def test_gmth_achieved_ratio_is_the_optimized_report_bit_for_bit():
    from thqaoa.gmth import optimize_threshold

    for n in (4, 9, 30):
        law = knn_spectrum(n, frame="y")
        for r in (1, 2, 3, 10, 1000, 10**6):
            expected = 0.5 - optimize_threshold(law, r).E_r / float(n * n)
            assert maxcut._achieved_ratio(law, n, r, "gmth").hex() == expected.hex()


@pytest.mark.parametrize("kind", ["max_amplification", "gmth"])
def test_min_rounds_unattainable_ratio_raises(kind):
    # K_{100,100} stays below 16/17 up to ROUND_SEARCH_LIMIT rounds; the CSVs
    # write an empty cell there, and only the public search raises
    with pytest.raises(DomainError, match="not reached within"):
        min_rounds_for_ratio(100, 16.0 / 17.0, bound_kind=kind)


def test_min_rounds_validation():
    with pytest.raises(DomainError):
        min_rounds_for_ratio(5, 0.0)
    with pytest.raises(DomainError):
        min_rounds_for_ratio(5, 1.2)
    with pytest.raises(DomainError):
        min_rounds_for_ratio(5, 0.5, bound_kind="magic")
