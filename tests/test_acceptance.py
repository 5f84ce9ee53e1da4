"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

These are Monte Carlo checks at fixed seeds with pinned tolerances; the
oracles (quadrature, grid enumeration, closed-form CDFs) live in
oracles.py and never share code with the sampling paths they check.
"""
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from privtext import (
    AmplifierConfig,
    CorpusSpec,
    EmbeddingStore,
    Mechanism,
    MechanismConfig,
    MultivariateLaplaceParam,
    ProtocolConfig,
    RngStream,
    attack_accuracy,
    build_profile,
    build_transition_matrix,
    deniability_stats,
    optimal_attack,
    posterior,
    run_protocol,
    sample_mv_laplace,
    sample_mv_laplace_truncated,
    sample_permutation,
    verify_metric_dp,
)
from privtext.analysis import Posterior
from privtext.randomizers import TransitionMatrix
from privtext.samplers import truncation_mass

from conftest import random_store
from oracles import (
    baseline_output_distribution_1d,
    density_output_distribution,
    distance,
    half_plane_mass,
    total_variation,
)


def record(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def toy5m():
    return EmbeddingStore.from_arrays(
        ["v", "w", "x", "y", "z"],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]],
    )


@pytest.fixture(scope="module")
def pair():
    return EmbeddingStore.from_arrays(["a", "b"], [[0.0, 0.0], [1.0, 0.0]])


@pytest.fixture(scope="module")
def toy5_matrix_eps2(toy5m):
    rng = RngStream(2024).fork_named("acceptance.matrix")
    return build_transition_matrix(toy5m, rng, MechanismConfig("baseline", 2.0), 10**6)


def test_criterion_1_metric_dp_soundness(toy5m, pair, toy5_matrix_eps2):
    report = verify_metric_dp(toy5_matrix_eps2, toy5m, epsilon=2.0)

    rng = RngStream(31).fork_named("acceptance.quadrature")
    outs = Mechanism(pair, MechanismConfig("baseline", 2.0)).perturb_batch(rng, 0, 10**6)
    empirical = (outs == 1).mean()
    oracle = half_plane_mass(epsilon=2.0, half_gap=0.5)
    quad_ok = abs(empirical - oracle) <= 0.005

    record(
        1,
        report.satisfied and quad_ok,
        f"max_violation={report.max_violation:.4f} (slack {report.slack_at_worst:.4f}), "
        f"quadrature |{empirical:.4f} - {oracle:.4f}| <= 0.005",
    )


def test_criterion_2_sampler_correctness():
    rng = RngStream(7).fork_named("acceptance.samplers")
    ks_stats = {}
    for d in (2, 3):
        z = sample_mv_laplace(rng.fork(d), MultivariateLaplaceParam(d, 1.5), size=10**6)
        r = np.linalg.norm(z, axis=1)
        ks_stats[d] = stats.kstest(r, stats.gamma(a=d, scale=1 / 1.5).cdf).statistic
    ks_ok = all(v < 0.002 for v in ks_stats.values())

    tau = 0.9
    z = sample_mv_laplace_truncated(
        rng.fork(99), MultivariateLaplaceParam(2, 1.0), tau, size=10**6
    )
    violations = int((np.linalg.norm(z, axis=1) > tau).sum())

    counts = {p: 0 for p in itertools.permutations(range(3))}
    fy_rng = rng.fork_named("fy")
    for _ in range(60_000):
        counts[tuple(sample_permutation(fy_rng, 3))] += 1
    chi2 = sum((c - 10_000) ** 2 / 10_000 for c in counts.values())
    chi2_ok = chi2 < stats.chi2.ppf(0.99, df=5)

    record(
        2,
        ks_ok and violations == 0 and chi2_ok,
        f"KS={ {d: round(v, 5) for d, v in ks_stats.items()} }, "
        f"trunc violations={violations}, chi2={chi2:.2f}",
    )


def test_criterion_3_smooth_sensitivity_axioms():
    gen = np.random.default_rng(1234)
    worst_gap = 0.0
    for _ in range(50):
        n = int(gen.integers(2, 501))
        d = int(gen.integers(1, 11))
        beta = float(gen.uniform(0, 5))
        store = random_store(gen, n, d)
        profile = build_profile(store, beta)
        s, local = profile.per_word_smooth, profile.per_word_local
        assert np.all(s >= local - 1e-12)  # property (1)
        dist = store.pairwise_distances()
        bound = np.exp(beta * dist) * s[None, :]
        gap = float(np.max(s[:, None] - bound))
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-9 * max(1.0, float(s.max()))  # property (2)

        zero = build_profile(store, 0.0)
        assert np.all(zero.per_word_smooth == zero.global_sensitivity)
    record(3, True, f"50 vocabularies, worst property-(2) slack {worst_gap:.2e}")


def test_criterion_4_density_mechanism():
    store = EmbeddingStore.from_arrays(["p", "q", "r"], [[-1.0], [0.0], [2.0]])
    eps, sigma = 1.0, 0.8
    mh = {"mh_steps": 305}
    n = 10**5

    rng = RngStream(55).fork_named("acceptance.density")
    cfg = MechanismConfig("density", eps, sigma=sigma, **mh)
    outs = Mechanism(store, cfg).perturb_batch(rng.fork(0), 1, n)
    emp = np.bincount(outs, minlength=3) / n
    expected = density_output_distribution(store.vectors[:, 0], 1, eps, sigma)
    tv_mod = total_variation(emp, expected)

    flat_cfg = MechanismConfig("density", eps, sigma=1e6, **mh)
    flat = np.bincount(
        Mechanism(store, flat_cfg).perturb_batch(rng.fork(1), 1, n), minlength=3
    ) / n
    base = np.bincount(
        Mechanism(store, MechanismConfig("baseline", eps)).perturb_batch(rng.fork(2), 1, n),
        minlength=3,
    ) / n
    tv_flat = total_variation(flat, base)
    grid_base = baseline_output_distribution_1d(store.vectors[:, 0], 1, eps)
    tv_flat_grid = total_variation(flat, grid_base)

    record(
        4,
        tv_mod < 0.02 and tv_flat < 0.02 and tv_flat_grid < 0.02,
        f"TV(modulated, grid)={tv_mod:.4f}, TV(flat-prior, baseline)={tv_flat:.4f}",
    )


def test_criterion_5_truncation_invariants(toy5m, toy3):
    rng = RngStream(88).fork_named("acceptance.trunc")
    violations = 0
    draws = 0

    for i, k in enumerate((1, 2, 4)):
        allowed = {0} | set(toy5m.k_nearest(0, k).tolist())
        outs = Mechanism(toy5m, MechanismConfig("trunc_knn", 0.4, k=k)).perturb_batch(
            rng.fork(i), 0, 200_000
        )
        draws += outs.size
        violations += int(np.sum(~np.isin(outs, list(allowed))))

    for j, tau in enumerate((0.8, 1.2)):
        outs = Mechanism(
            toy5m, MechanismConfig("trunc_distance", 0.4, tau=tau)
        ).perturb_batch(rng.fork(10 + j), 0, 200_000)
        draws += outs.size
        dists = np.array([distance(toy5m, 0, int(u)) for u in range(len(toy5m))])
        violations += int(np.sum(dists[outs] > tau))

    eps, tau = 1.0, 2.0
    p_in = truncation_mass(MultivariateLaplaceParam(2, eps), tau)
    res_cfg = MechanismConfig("trunc_distance", eps, tau=tau, trunc_strategy="residual")
    outs = Mechanism(toy3, res_cfg).perturb_batch(rng.fork(42), 0, 10**6)
    out_freq = (outs == 1).mean()  # only b lies outside the tau-ball around a
    residual_ok = abs(out_freq - (1 - p_in)) <= 0.005

    record(
        5,
        violations == 0 and draws == 10**6 and residual_ok,
        f"{violations} violations in {draws} draws; residual out-region "
        f"freq {out_freq:.4f} vs {1 - p_in:.4f}",
    )


def test_criterion_6_bayes_attack(toy5m, toy5_matrix_eps2):
    m2 = TransitionMatrix(np.array([[0.7, 0.3], [0.3, 0.7]]), sample_count=1)
    p2 = posterior([0.5, 0.5], m2, observed=0)
    exact2 = abs(p2.probs[0] - 0.7) <= 1e-12 and abs(p2.probs[1] - 0.3) <= 1e-12

    probs3 = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]])
    prior3 = np.array([0.5, 0.25, 0.25])
    p3 = posterior(prior3, TransitionMatrix(probs3, sample_count=1), observed=2)
    joint = prior3 * probs3[:, 2]
    exact3 = bool(np.all(np.abs(p3.probs - joint / joint.sum()) <= 1e-12))

    gen = np.random.default_rng(77)
    argmin_ok = True
    for _ in range(100):
        store = random_store(gen, 10, 3)
        pr = gen.uniform(size=10)
        pr /= pr.sum()
        exhaustive = min(
            range(10),
            key=lambda c: (sum(pr[w] * distance(store, c, w) for w in range(10)), c),
        )
        argmin_ok &= optimal_attack(store, Posterior(0, pr)) == exhaustive

    rng = RngStream(404).fork_named("acceptance.attack")
    m_low = build_transition_matrix(
        toy5m, rng.fork(0), MechanismConfig("baseline", 0.5), 10**5
    )
    prior = np.full(5, 0.2)
    acc_low = attack_accuracy(toy5m, rng.fork(1), m_low, prior, 10**4)
    acc_high = attack_accuracy(toy5m, rng.fork(2), toy5_matrix_eps2, prior, 10**4)
    m_four = build_transition_matrix(
        toy5m, rng.fork(3), MechanismConfig("baseline", 4.0), 10**5
    )
    acc_four = attack_accuracy(toy5m, rng.fork(4), m_four, prior, 10**4)

    record(
        6,
        exact2 and exact3 and argmin_ok and acc_low < acc_four,
        f"posterior fixtures exact; argmin oracle 100/100; "
        f"accuracy eps=0.5 {acc_low:.3f} < eps=4 {acc_four:.3f} (eps=2: {acc_high:.3f})",
    )


def test_criterion_7_deniability_and_utility_monotonicity(toy5m):
    reps = 20
    # p_unchanged improves with epsilon
    p_wins = 0
    for rep in range(reps):
        p = {}
        for eps in (0.5, 4.0):
            mech = Mechanism(toy5m, MechanismConfig("baseline", eps))
            rng = RngStream(5000 + rep).fork_named(f"den{eps}")
            p[eps] = deniability_stats(mech, rng, 0, 2000).p_unchanged
        p_wins += p[4.0] > p[0.5]

    # pipeline utility improves with epsilon on a Zipf corpus over 50 words
    gen = np.random.default_rng(2718)
    corpus_store = random_store(gen, 50, 3)
    l1_wins = 0
    for rep in range(reps):
        l1 = {}
        for eps in (0.5, 4.0):
            config = ProtocolConfig(
                n_users=25,
                m_per_user=4,
                mechanism=MechanismConfig("baseline", eps),
                seed=9000 + rep,
                corpus=CorpusSpec(kind="zipf", s=1.1),
            )
            l1[eps] = run_protocol(corpus_store, config).utility_l1
        l1_wins += l1[4.0] < l1[0.5]

    # one-sided sign test at p < 0.05
    p_sign = stats.binomtest(p_wins, reps, 0.5, alternative="greater").pvalue
    l1_sign = stats.binomtest(l1_wins, reps, 0.5, alternative="greater").pvalue

    # smooth calibration keeps dense-cluster words unchanged more often
    dense = [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1], [0.05, 0.05], [0.2, 0.0]]
    clustered = EmbeddingStore.from_arrays(
        [f"d{i}" for i in range(6)] + ["far"], dense + [[50.0, 0.0]]
    )
    eps = 0.5
    profile = build_profile(clustered, 1.0)
    rng = RngStream(606)
    p_base = deniability_stats(
        Mechanism(clustered, MechanismConfig("baseline", eps)), rng.fork(0), 0, 10**5
    ).p_unchanged
    p_smooth = deniability_stats(
        Mechanism(clustered, MechanismConfig("smooth", eps, beta=1.0), profile),
        rng.fork(1),
        0,
        10**5,
    ).p_unchanged

    record(
        7,
        p_sign < 0.05 and l1_sign < 0.05 and p_smooth > p_base,
        f"p_unchanged wins {p_wins}/{reps} (p={p_sign:.2e}), "
        f"utility wins {l1_wins}/{reps} (p={l1_sign:.2e}), "
        f"smooth {p_smooth:.3f} > baseline {p_base:.3f} on dense word",
    )


def test_criterion_8_conservation_and_determinism(toy5m):
    config = ProtocolConfig(
        n_users=30,
        m_per_user=4,
        mechanism=MechanismConfig("baseline", 1e3),  # near-identity localizer
        amplifiers=(AmplifierConfig("shuffle"),),
        seed=77,
        corpus=CorpusSpec(kind="zipf", s=1.1),
    )
    report = run_protocol(toy5m, config)
    shuffle_ok = report.utility_l1 == 0.0

    config2 = ProtocolConfig(
        n_users=10,
        m_per_user=3,
        mechanism=MechanismConfig("baseline", 1.0),
        amplifiers=(AmplifierConfig("subsample", q=0.7), AmplifierConfig("kthreshold", k=2)),
        seed=123,
        corpus=CorpusSpec(kind="zipf", s=1.1),
    )
    a = run_protocol(toy5m, config2).to_json(toy5m)
    b = run_protocol(toy5m, config2).to_json(toy5m)

    record(
        8,
        shuffle_ok and a == b,
        f"shuffle-only utility_l1={report.utility_l1}, reports byte-identical={a == b}",
    )
