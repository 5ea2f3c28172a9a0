"""The benchmark's tracer (perfbench/tracing.py) patches library functions
by name; a renamed or deleted target must fail here, not only in a traced
benchmark run."""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from vidmem.corpus import load_feature_csv  # noqa: E402


def _bindings():
    """Every vidmem module attribute, traced method and the harness pool."""
    names = {(mod, key): value for mod in list(sys.modules.values())
             if mod is not None and mod.__name__.split(".")[0] == "vidmem"
             for key, value in vars(mod).items()}
    names.update(((cls, attr), vars(cls)[attr]) for _, cls, attr, _ in tracing.METHODS)
    return names


def test_tracer_patches_every_target_and_restores_it():
    before = _bindings()
    with tracing.Tracer():
        for _, module, attr, _ in tracing.FUNCTIONS:
            assert hasattr(getattr(module, attr), "__wrapped_original__"), attr
        for _, cls, attr, _ in tracing.METHODS:
            assert hasattr(vars(cls)[attr], "__wrapped_original__"), attr
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in after.items() if value is not before[key]]
    assert changed == []


def test_load_lines_counts_every_feature_row(tmp_path):
    """`corpus.load_lines` must count the rows of a feature file however the
    loader stores them, interleaved videos included."""
    p = tmp_path / "f.csv"
    p.write_text("v1,0.1,0.2\nv2,0.3,0.4\n\nv1,0.5,0.6\nv3,0.7,0.8\nv2,0.9,1.0\n")
    lines = sum(1 for line in p.read_text().splitlines() if line.strip())
    assert tracing._rows(load_feature_csv(p, "video", "C3D")) == lines == 5


def test_benchmark_selftest_passes():
    """perfbench/selftest.py runs each workload at a tiny scale, traced and
    untraced, and checks the per-layer counts (`aggregate.rows_in`,
    `decay.iterations`, ...) that the library's bucketed paths feed."""
    result = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr


# The counts of one full-scale protocol-linear iteration, seed 0, as the
# per-video feature dicts gave them; a columnar table or predict path must
# keep what each counter counts.
PROTOCOL_LINEAR_COUNTS = {"aggregate.rows_in": 6300, "corpus.load_lines": 3000,
                          "harness.train_calls": 20, "regress.lasso_sweeps": 28,
                          "metrics.srcc_calls": 24, "ensemble.candidates": 924,
                          "aggregate.fallback_videos": 0}


def _traced_counts(workload, tmp_path, names):
    """The named per-layer metrics of one traced seed-0 iteration."""
    plan = workloads.setup(workload, tmp_path, seed=0)
    _, _, codes, _, tracer = measure.run_calls(plan, trace=True)
    assert codes == [0]
    metrics = tracing.layer_metrics(tracer.spans, tracer.skipped_constant)
    return {name: metrics[name] for name in names}


def test_protocol_linear_counts_pinned(tmp_path):
    counts = _traced_counts("protocol-linear", tmp_path, PROTOCOL_LINEAR_COUNTS)
    assert counts == PROTOCOL_LINEAR_COUNTS


# The counts of one full-scale protocol-models iteration, seed 0, as the
# two-thread pool gave them; running the fits one at a time must do the
# same work.  Each GRU fit embeds the captions it reads, with no cache
# across fits: 152 `embed` calls for 38 distinct captions.
PROTOCOL_MODELS_COUNTS = {"harness.train_calls": 12, "regress.fit_svr_calls": 8,
                          "regress.svr_pair_updates": 3660, "textmodel.gru_epochs": 8,
                          "textmodel.embed_calls": 152, "aggregate.rows_in": 266,
                          "aggregate.fallback_videos": 94, "metrics.srcc_calls": 12,
                          "ensemble.candidates": 84, "corpus.load_lines": 651}


def test_protocol_models_counts_pinned(tmp_path):
    counts = _traced_counts("protocol-models", tmp_path, PROTOCOL_MODELS_COUNTS)
    assert counts == PROTOCOL_MODELS_COUNTS
