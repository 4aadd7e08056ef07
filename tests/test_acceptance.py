"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 6 needs the external BREC distribution and is skipped
unless GRAPHINV_BREC points at the pairs file (.npy of graph6 strings or
pairs JSONL).
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import oracles
from graphinv.cli import main
from graphinv.expressivity import GraphPair, greedy_subset, load_pairs, score_pairs
from graphinv.features import feature_agg, feature_sum
from graphinv.graph import GraphDataset, adjacency_matrix, adjacency_sets, bfs_all_pairs, degree_vector, graph_to_obj, relabel
from graphinv.invariants.basic import spanning_tree_count
from graphinv.invariants.homcount import count_all_patterns
from graphinv.invariants.indices import randic, wiener
from graphinv.invariants.patterns import PATTERN_CATALOG
from graphinv.invariants.topo import DEFAULT_MAGNITUDE_Q, forman_ricci, magnitude, ollivier_ricci
from graphinv.meta import MetaTable, assemble_meta_table, nearest_centroid_accuracy
from graphinv.registry import RegimeConfig, build_catalog, fingerprint, fingerprint_dataset

from conftest import (
    barabasi_albert,
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi,
    path_graph,
    random_graph,
    random_permutation,
    rook_graph_4x4,
    shrikhande_graph,
    star_graph,
)
from test_expressivity import make_report


@contextmanager
def criterion(label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {label}: PASS ({time.perf_counter() - start:.1f}s)")


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def test_c1_closed_form_suite():
    with criterion("C1 closed-form invariant suite"):
        start = time.perf_counter()
        q = DEFAULT_MAGNITUDE_Q
        for n in range(2, 9):
            assert rel_close(float(wiener(path_graph(n))), n * (n * n - 1) / 6, 1e-9)
            assert rel_close(float(spanning_tree_count(complete_graph(n))), n ** (n - 2), 1e-9)
            if n >= 3:
                assert rel_close(float(spanning_tree_count(cycle_graph(n))), n, 1e-9)
                forman = forman_ricci(cycle_graph(n))
                assert np.all(forman.values == 0.0) and forman.mean == 0.0
            assert rel_close(float(randic(complete_graph(n))), n / 2, 1e-9)
            assert rel_close(float(magnitude(complete_graph(n))), n / (1 + (n - 1) * q), 1e-9)
            from graphinv.invariants.indices import estrada

            assert rel_close(float(estrada(empty_graph(n))), n, 1e-9)
            # star closed forms: one spanning tree (it is a tree), wiener k^2
            # (k leaves: k center-leaf pairs at 1, k(k-1)/2 leaf pairs at 2)
            k = n - 1
            assert rel_close(float(spanning_tree_count(star_graph(k))), 1.0, 1e-9)
            assert rel_close(float(wiener(star_graph(k))), k * k, 1e-9)
        assert time.perf_counter() - start < 5.0


def test_c2_oracle_equivalence(rng):
    with criterion("C2 oracle equivalence"):
        start = time.perf_counter()

        # every molecular index vs its naive double-loop reference
        from test_indices import ALL_INDICES
        from graphinv.invariants.indices import general_randic

        for _ in range(500):
            g = random_graph(rng, max_n=12)
            for name, fn in ALL_INDICES.items():
                got = float(fn(g))
                want = oracles.NAIVE_INDICES[name](g.n_vertices, g.edges)
                assert rel_close(got, want, 1e-10), name
            for c in (-1.0, 0.5):
                assert rel_close(
                    float(general_randic(g, c)),
                    oracles.general_randic(g.n_vertices, g.edges, c),
                    1e-10,
                )

        # homomorphism counts vs exhaustive map enumeration
        hom_hosts = [random_graph(rng, max_n=6, min_n=2) for _ in range(25)]
        hom_hosts += [erdos_renyi(8, 0.4, rng) for _ in range(3)]
        for g in hom_hosts:
            got = count_all_patterns(g)
            for i, p in enumerate(PATTERN_CATALOG):
                want = oracles.count_homomorphisms_exhaustive(
                    p.n_vertices, p.edges, g.n_vertices, g.edges
                )
                assert got[i] == want

        # Ollivier W1 vs exhaustive transport-plan search on supports <= 4
        checked = 0
        while checked < 12:
            g = erdos_renyi(7, 0.3, rng)
            deg = degree_vector(g)
            if g.n_edges == 0 or deg.max() > 3:
                continue
            checked += 1
            nbrs = adjacency_sets(g)
            dmat = bfs_all_pairs(g)
            got = ollivier_ricci(g, alpha=0.5)
            for e, (u, v) in enumerate(g.edges):
                mu = [Fraction(1, 2)] + [Fraction(1, 2 * int(deg[u]))] * int(deg[u])
                nu = [Fraction(1, 2)] + [Fraction(1, 2 * int(deg[v]))] * int(deg[v])
                cost = [
                    [int(dmat[a, b]) for b in [v] + sorted(nbrs[v])]
                    for a in [u] + sorted(nbrs[u])
                ]
                w1 = oracles.wasserstein_exhaustive(mu, nu, cost)
                assert abs(got.values[e] - (1.0 - float(w1))) <= 1e-9

        # spanning trees vs deletion/contraction enumeration
        from graphinv.graph import connected_components

        checked = 0
        while checked < 60:
            g = random_graph(rng, max_n=7)
            if connected_components(g)[0] != 1:
                continue
            checked += 1
            want = oracles.spanning_trees_deletion_contraction(g.n_vertices, g.edges)
            assert rel_close(float(spanning_tree_count(g)), want, 1e-9)

        assert time.perf_counter() - start < 600.0


def test_c3_permutation_invariance(rng):
    with criterion("C3 permutation invariance"):
        start = time.perf_counter()
        catalog = build_catalog(RegimeConfig())
        for _ in range(200):
            g = random_graph(rng, min_n=2, max_n=10)
            base = fingerprint(g, catalog)
            for _ in range(5):
                h = relabel(g, random_permutation(g.n_vertices, rng))
                other = fingerprint(h, catalog)
                for d, a, b in zip(catalog, base, other):
                    if d.name == "kolmogorov_proxy":  # documented caveat
                        continue
                    assert a.status == b.status, d.name
                    if a.ok:
                        # relative with absolute floor 1, the artifact's
                        # tolerance convention (eigenvalues that are zeros
                        # up to rounding admit no pure relative comparison)
                        scale = np.maximum(np.maximum(np.abs(a.values), np.abs(b.values)), 1.0)
                        assert np.all(np.abs(a.values - b.values) <= 1e-9 * scale), d.name
        assert time.perf_counter() - start < 120.0


def test_c4_wl_hard_pair_differentiation():
    with criterion("C4 1-WL-hard pair differentiation"):
        catalog = build_catalog(RegimeConfig())
        pairs = [
            GraphPair(cycle_graph(6), two_triangles_local(), "Basic", "c6-vs-2c3"),
            GraphPair(rook_graph_4x4(), shrikhande_graph(), "Regular", "rook-vs-shrikhande"),
        ]
        report = score_pairs(pairs, catalog, tol=1e-6)
        assert report.pair_differentiated().all()

        hom_col = report.invariant_names.index("homomorphism_counts")
        assert report.differentiated[1, hom_col]

        # independent brute force: dense tensor contraction over all maps
        rook, shri = rook_graph_4x4(), shrikhande_graph()
        a_rook, a_shri = adjacency_matrix(rook), adjacency_matrix(shri)
        got_rook = count_all_patterns(rook)
        got_shri = count_all_patterns(shri)
        differing = []
        for i, p in enumerate(PATTERN_CATALOG):
            want_rook = oracles.count_homomorphisms_einsum(p.n_vertices, p.edges, a_rook)
            want_shri = oracles.count_homomorphisms_einsum(p.n_vertices, p.edges, a_shri)
            assert got_rook[i] == want_rook and got_shri[i] == want_shri, p.label
            if want_rook != want_shri:
                differing.append(p)
        assert differing, "hom counts must separate the strongly regular pair"
        # both graphs are (16,6,2,2) strongly regular: degree-based indices agree
        for name in ("randic", "zagreb_first", "zagreb_second", "forgotten"):
            col = report.invariant_names.index(name)
            assert not report.differentiated[1, col], name


def two_triangles_local():
    from conftest import two_triangles

    return two_triangles()


def test_c5_greedy_coverage_equality(rng):
    with criterion("C5 greedy coverage equality"):
        for _ in range(50):
            n_pairs = rng.randint(1, 40)
            n_inv = rng.randint(1, 15)
            matrix = np.array(
                [[rng.random() < rng.uniform(0.05, 0.6) for _ in range(n_inv)] for _ in range(n_pairs)]
            )
            report = make_report(matrix)
            picked = [int(name[3:]) for name, _ in greedy_subset(report)]
            covered = (
                matrix[:, picked].any(axis=1) if picked else np.zeros(n_pairs, dtype=bool)
            )
            assert np.array_equal(covered, matrix.any(axis=1))


def test_c6_brec_full_scale():
    path = os.environ.get("GRAPHINV_BREC")
    if not path:
        print("ACCEPTANCE C6 BREC full-scale: SKIP (set GRAPHINV_BREC to the distribution file)")
        pytest.skip("external BREC distribution not available offline")
    with criterion("C6 BREC full-scale"):
        pairs = load_pairs(path)
        assert len(pairs) == 400
        catalog = build_catalog(RegimeConfig())
        report = score_pairs(pairs, catalog, tol=1e-6)
        stats = report.category_stats()
        expected = {"Basic": 60, "Regular": 120, "Extension": 100, "CFI": 12}
        for cat, want in expected.items():
            got = stats[cat]["count"]
            assert abs(got - want) <= 5, f"{cat}: {got} vs {want}"
        total = report.total_stats()["count"]
        assert abs(total - 292) <= 20
        assert len(greedy_subset(report)) == 4


def test_c7_feature_identities(rng):
    with criterion("C7 feature-configuration identities"):
        for _ in range(200):
            g = random_graph(rng)
            assert feature_sum(g).tolist() == [float(g.n_vertices)]
            agg = feature_agg(g, 1)
            assert agg[1] == 2.0 * g.n_edges
            long = feature_agg(g, 4)
            for h in (1, 2, 3, 4):
                short = feature_agg(g, h)
                assert np.array_equal(long[: short.size], short)


def test_c8_determinism_and_parallelism(tmp_path):
    with criterion("C8 determinism & parallelism"):
        start = time.perf_counter()
        gen = random.Random(777)
        dataset = tmp_path / "synthetic.jsonl"
        with open(dataset, "w") as fh:
            for i in range(1000):
                g = erdos_renyi(gen.randint(6, 10), 0.35, gen, id=f"s{i}")
                fh.write(json.dumps(graph_to_obj(g)) + "\n")

        out1, out8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
        assert main(["--threads", "1", "fingerprint", "--dataset", str(dataset), "--out", str(out1)]) == 0
        assert main(["--threads", "8", "fingerprint", "--dataset", str(dataset), "--out", str(out8)]) == 0
        assert out1.read_bytes() == out8.read_bytes()

        # meta with a fixed seed is byte-identical across runs
        d1, d2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
        for path, p in ((d1, 0.2), (d2, 0.6)):
            with open(path, "w") as fh:
                for i in range(40):
                    g = erdos_renyi(8, p, gen, id=f"{path.stem}-{i}")
                    fh.write(json.dumps(graph_to_obj(g)) + "\n")
        metas = []
        for name in ("ma.csv", "mb.csv"):
            out = tmp_path / name
            code = main([
                "--seed", "7", "meta", "--datasets", str(d1), str(d2),
                "--regime", "reduced", "--sample", "25", "--out", str(out),
            ])
            assert code == 0
            metas.append(out.read_bytes())
        assert metas[0] == metas[1]
        assert time.perf_counter() - start < 120.0


def _split_rows(n, label, test_fraction, rng):
    n_test = min(max(int(round(test_fraction * n)), 1), n - 1)
    test_idx = set(rng.permutation(n)[:n_test].tolist())
    splits = ["test" if i in test_idx else "train" for i in range(n)]
    return [label] * n, splits


def test_c9_meta_separability():
    with criterion("C9 meta separability sanity"):
        catalog = build_catalog(RegimeConfig(regime="reduced"))
        gen = random.Random(4242)
        er = [erdos_renyi(30, 0.1, gen, id=f"er{i}") for i in range(400)]
        ba = [barabasi_albert(30, 2, gen, id=f"ba{i}") for i in range(400)]

        table = assemble_meta_table(
            [GraphDataset(tuple(er), name="er"), GraphDataset(tuple(ba), name="ba")],
            catalog, sample_size=400, test_fraction=0.2, seed=0,
        )
        separable = nearest_centroid_accuracy(table).overall_accuracy
        assert separable >= 0.9, f"ER vs BA accuracy {separable}"

        # two samples of the SAME generator: chance level over 5 seeds;
        # fingerprints are pure per-graph functions, reused across seeds
        er2 = [erdos_renyi(30, 0.1, gen, id=f"er2-{i}") for i in range(400)]
        rows = fingerprint_dataset(er + er2, catalog)
        accs = []
        for seed in range(5):
            srng = np.random.default_rng(seed)
            la, sa = _split_rows(len(er), 0, 0.2, srng)
            lb, sb = _split_rows(len(er2), 1, 0.2, srng)
            t = MetaTable(
                fingerprints=rows, labels=tuple(la + lb), splits=tuple(sa + sb),
                label_names=("er-a", "er-b"), seed=seed,
            )
            accs.append(nearest_centroid_accuracy(t).overall_accuracy)
        mean_acc = float(np.mean(accs))
        assert 0.35 <= mean_acc <= 0.65, f"chance-level accuracy {mean_acc} ({accs})"
