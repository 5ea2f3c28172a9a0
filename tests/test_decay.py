import json
from pathlib import Path

import numpy as np
import pytest

from oracles import decay_update_round
from vidmem.corpus import AnnotationLog
from vidmem.decay import DEGENERATE_WARNING, adjust_labels, fit_decay
from vidmem.harness import SyntheticCorpusSpec, generate_synthetic


def make_log(spec):
    """AnnotationLog from {video id: [(recognized, delay), ...]}."""
    trials = [(vid, t, x) for vid, obs in spec.items() for x, t in obs]
    return AnnotationLog(*map(list, zip(*trials)))


def test_degenerate_all_delays_at_target():
    log = make_log({"v1": [(1, 75.0), (1, 75.0), (0, 75.0)]})
    fit = fit_decay(log, 75.0, 10)
    assert fit.m_t["v1"] == 2.0 / 3.0  # bit-exact raw hit rate
    assert fit.alpha == 0.0
    assert DEGENERATE_WARNING in fit.warnings
    assert fit.iterations_run == 10


def test_empty_log_rejected():
    with pytest.raises(ValueError):
        fit_decay(AnnotationLog((), (), ()), 75.0, 10)


@pytest.mark.parametrize("target, iterations, message", [
    (75.0, 0, "iterations must be >= 1"),
    (0.0, 10, "target duration must be positive"),
    (float("nan"), 10, "target duration must be positive"),
])
def test_bad_fit_settings_rejected(target, iterations, message):
    log = make_log({"v1": [(1, 30.0), (0, 150.0)]})
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit_decay(log, target, iterations)


def test_alpha_trajectory_recorded():
    log = make_log({"v1": [(1, 30.0), (0, 150.0)], "v2": [(1, 60.0), (1, 90.0)]})
    fit = fit_decay(log, 75.0, 5)
    assert len(fit.alpha_trajectory) == 5
    assert fit.alpha_trajectory[-1] == fit.alpha


def test_fixed_point_under_one_more_round():
    synth = generate_synthetic(SyntheticCorpusSpec(n_videos=100, obs_per_video=15, seed=9))
    log = synth.corpus.annotations["short"]
    fit = fit_decay(log, 75.0, 200)
    alpha2, m2 = decay_update_round(log, 75.0, fit.alpha, fit.m_t)
    assert abs(alpha2 - fit.alpha) < 1e-12
    assert max(abs(m2[v] - fit.m_t[v]) for v in fit.m_t) < 1e-12


def test_delay_scale_invariance():
    log = make_log({"v1": [(1, 30.0), (0, 150.0)], "v2": [(1, 60.0), (1, 90.0), (0, 120.0)]})
    fit = fit_decay(log, 75.0, 10)
    scaled = AnnotationLog(log.video_id, log.delay_seconds * 3.0, log.recognized)
    fit_s = fit_decay(scaled, 225.0, 10)
    assert abs(fit.alpha - fit_s.alpha) < 1e-9
    for vid in fit.m_t:
        assert abs(fit.m_t[vid] - fit_s.m_t[vid]) < 1e-9


def test_synthetic_alpha_recovery():
    synth = generate_synthetic(SyntheticCorpusSpec(seed=0))  # 500 x 30, alpha* = -0.03
    fit = fit_decay(synth.corpus.annotations["short"], 75.0, 10)
    assert abs(fit.alpha - synth.true_alpha) <= 0.01


def test_interleaved_trials_fit_as_grouped():
    grouped = make_log({"v1": [(1, 30.0), (0, 150.0), (1, 80.0)],
                        "v2": [(1, 60.0), (0, 90.0)]})
    interleaved = AnnotationLog(["v1", "v2", "v1", "v2", "v1"],
                                [30.0, 60.0, 150.0, 90.0, 80.0], [1, 1, 0, 0, 1])
    fit, fit_i = fit_decay(grouped, 75.0, 10), fit_decay(interleaved, 75.0, 10)
    assert fit_i.alpha_trajectory == fit.alpha_trajectory
    assert list(fit_i.m_t.items()) == list(fit.m_t.items())


def _ragged_log(rng, lengths, shuffle=True, delay=None):
    """A log with `lengths[k]` trials for video k, trials shuffled across
    videos unless `shuffle` is false; every delay is `delay` if given."""
    vids = [f"v{k:03d}" for k in range(len(lengths))]
    video_id = [vid for vid, n in zip(vids, lengths) for _ in range(n)]
    rates = np.repeat(rng.uniform(0.2, 0.9, len(vids)), lengths)
    recognized = (rng.random(len(video_id)) < rates).astype(int)
    delays = (np.full(len(video_id), delay) if delay is not None
              else rng.uniform(30.0, 150.0, len(video_id)))
    order = rng.permutation(len(video_id)) if shuffle else np.arange(len(video_id))
    return AnnotationLog([video_id[i] for i in order], delays[order], recognized[order])


def _pinned_decay_fits():
    """`fit_decay` on ragged logs: every length 1-40, shuffled and grouped
    trial order, seeded random logs, one video, equal lengths, and all
    delays at the target.  The per-video means carry the bits."""
    rng = np.random.default_rng(2024)
    all_lengths = np.concatenate([np.arange(1, 41), rng.integers(1, 41, 60)])
    cases = {"lengths-1-40-shuffled": (_ragged_log(rng, all_lengths), 75.0, 10),
             "lengths-1-40-grouped": (_ragged_log(rng, all_lengths, shuffle=False), 75.0, 10)}
    for k in range(24):
        lengths = rng.integers(1, 41, int(rng.integers(1, 40)))
        cases[f"seeded-{k}"] = (_ragged_log(rng, lengths), float(rng.uniform(40, 120)), 10)
    cases["single-video"] = (_ragged_log(rng, [9]), 75.0, 10)
    cases["single-trial"] = (_ragged_log(rng, [1]), 75.0, 3)
    cases["equal-lengths"] = (_ragged_log(rng, [12] * 50), 75.0, 10)
    cases["all-delays-at-target"] = (_ragged_log(rng, rng.integers(1, 41, 30), delay=75.0),
                                     75.0, 10)
    out = {}
    for name, (log, target, iterations) in cases.items():
        fit = fit_decay(log, target, iterations)
        out[name] = {"alpha_trajectory": list(fit.alpha_trajectory), "m_t": fit.m_t,
                     "warnings": list(fit.warnings)}
    return json.dumps(out, indent=1) + "\n"


def test_ragged_fits_match_recording():
    """Each video's four means are taken over its own trials; a change to
    their summation order moves these bytes."""
    recorded = (Path(__file__).parent / "data" / "decay_parent_fits.json").read_text()
    assert _pinned_decay_fits() == recorded


class TestAdjustLabels:
    def test_pass_through_and_clamp(self):
        log = make_log({"v1": [(1, 75.0), (1, 75.0), (0, 75.0)]})
        fit = fit_decay(log, 75.0, 1)
        table = adjust_labels(fit)
        assert table.scores["v1"] == pytest.approx(2.0 / 3.0)

    def test_clamp_boundaries(self):
        from vidmem.decay import DecayFit
        fit = DecayFit(alpha=-0.02, target_duration=75.0,
                       m_t={"a": 1.03, "b": -0.02, "c": 0.667},
                       alpha_trajectory=(-0.02,))
        table = adjust_labels(fit)
        assert table.scores == {"a": 1.0, "b": 0.0, "c": 0.667}
