"""Tests of the benchmark itself: every workload runs to its end at a tiny
size, and the checks reject tampered outputs.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from captionkit import convmodel as cm  # noqa: E402
from captionkit import decoding, training  # noqa: E402
from captionkit.checkpoint import save_checkpoint  # noqa: E402
from captionkit.data import TokenSeq, synth_corpus  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def tiny_result(workload, trace, seed="3"):
    proc = run_bench("--workload", workload, "--seed", seed, "--seconds", "1",
                     "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_to_its_end_at_tiny_size(workload, trace):
    result, stderr = tiny_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }


def test_traced_counts_repeat_exactly():
    first, _ = tiny_result("cnn", "1")
    second, _ = tiny_result("cnn", "1")
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    assert [first["metrics"][n]["value"] for n in counts] == [
        second["metrics"][n]["value"] for n in counts
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# the checks against tampered outputs


@pytest.fixture(scope="module")
def setting():
    records, vocab = synth_corpus(6, seed=0, feature_dim=5, grid_size=2, spatial_channels=8)
    config = cm.ModelConfig(
        vocab_size=vocab.size, embed_dim=8, hidden_dim=8, num_layers=2,
        kernel_widths=(2, 3), bottleneck_dim=6, max_steps=4, feature_dim=5,
        dropout_p=0.0, weight_norm=True, attention=True, grid_size=2, spatial_channels=8,
    )
    fresh = cm.init_params(config, seed=0)
    model = cm.init_params(config, seed=0)
    rng = np.random.default_rng(1)
    for t in model.parameters().values():
        t.data[:] = rng.normal(scale=0.5, size=t.data.shape)
    examples = training.prepare_examples(records, vocab, config.max_steps)
    return {"fresh": fresh, "model": model, "examples": examples, "vocab": vocab}


def test_fresh_probe_check(setting):
    checks.check_fresh_probe(setting["fresh"], setting["examples"], setting["vocab"].size)
    with pytest.raises(checks.CheckFailed):
        checks.check_fresh_probe(setting["model"], setting["examples"], setting["vocab"].size)


def test_reported_probe_check(setting):
    model, examples = setting["model"], setting["examples"]
    from captionkit import analysis

    reported = analysis.mean_nll(model, examples)
    checks.check_reported_probe(model, examples, reported)
    with pytest.raises(checks.CheckFailed):
        checks.check_reported_probe(model, examples, reported + 1e-8)


def test_loss_fell_check():
    checks.check_loss_fell(2.0, 1.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_loss_fell(2.0, 1.9)


def test_checkpoint_roundtrip_check(setting, tmp_path):
    model, examples = setting["model"], setting["examples"]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, seed=0, epoch=0)
    checks.check_checkpoint_roundtrip(path, model, examples)
    # The last 8 bytes are the last output bias; move it by one part in 1e9.
    blob = bytearray(path.read_bytes())
    last = np.frombuffer(bytes(blob[-8:]), dtype="<f8")[0]
    blob[-8:] = np.array([last * (1 + 1e-9)], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(checks.CheckFailed):
        checks.check_checkpoint_roundtrip(path, model, examples)


def test_beam_check_accepts_real_beams(setting):
    model = setting["model"]
    for ex in setting["examples"]:
        beams = decoding.beam_search(model, ex.features, beam_size=3)
        checks.check_beams(model, ex.features, beams, 3, model.config.max_steps)
        beam1 = decoding.beam_search(model, ex.features, beam_size=1)
        checks.check_greedy_is_beam1(decoding.greedy_decode(model, ex.features), beam1)


def test_beam_check_rejects_tampered_beams(setting):
    model = setting["model"]
    ex = setting["examples"][0]
    limit = model.config.max_steps
    beams = decoding.beam_search(model, ex.features, beam_size=3)
    assert len(beams) == 3
    (seq, logprob), *rest = beams
    tampered = {
        "log-probability off by 1e-6": [(seq, logprob + 1e-6), *rest],
        "ranked worst first": beams[::-1],
        "duplicate beam": [beams[0], beams[0], beams[1]],
        "too many beams": beams + beams[:1],
    }
    for name, bad in tampered.items():
        with pytest.raises(checks.CheckFailed):
            checks.check_beams(model, ex.features, bad, 3, limit)
            pytest.fail(f"accepted beams with {name}")


def test_greedy_check_rejects_other_caption(setting):
    model = setting["model"]
    ex = setting["examples"][0]
    beam1 = decoding.beam_search(model, ex.features, beam_size=1)
    tokens = checks.caption_tokens(beam1[0][0])
    other = TokenSeq.from_token_ids(tokens[:-1] if tokens else (3,), model.config.max_steps)
    with pytest.raises(checks.CheckFailed):
        checks.check_greedy_is_beam1(other, beam1)


def test_template_share_check():
    assert checks.template_caption(
        {"color": "red", "object": "ball", "relation": "on", "place": "table"}
    ) == ["a", "red", "ball", "on", "the", "table"]
    checks.check_template_share("captions", 5, 100, 0.05)
    with pytest.raises(checks.CheckFailed):
        checks.check_template_share("captions", 4, 100, 0.05)
