"""The benchmark's tracer patches captionkit names by looking them up by name,
so a renamed or deleted function breaks ``bench/run.py --trace 1``. This
loads ``bench/tracing.py`` as it is, installs and uninstalls a Tracer, and
checks that every patched name was found and is restored afterwards."""

import importlib.util
from pathlib import Path

import pytest

from captionkit import analysis, autodiff, cli, training
from captionkit.convmodel import CaptionModel
from captionkit.lstmmodel import LstmModel

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
OWNERS = {
    "autodiff": autodiff, "training": training, "analysis": analysis, "cli": cli,
    "Tensor": autodiff.Tensor, "RmsProp": training.RmsProp,
    "CaptionModel": CaptionModel, "LstmModel": LstmModel,
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    return {owner: dict(vars(obj)) for owner, obj in OWNERS.items()}


def changed(before, after):
    return {f"{owner}.{name}" for owner in before
            for name in before[owner].keys() | after[owner].keys()
            if before[owner].get(name) is not after[owner].get(name)}


def test_tracer_install_finds_every_name_and_uninstall_restores_it(tracing):
    before = snapshot()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = changed(before, snapshot())
    finally:
        tracer.uninstall()
    expected = {f"autodiff.{op}" for op in tracing.TRACED_OPS}
    expected |= {f"analysis.{name}" for name in tracing.PROBE_FUNCTIONS}
    expected |= {"autodiff._node", "autodiff.backward", "Tensor.__init__", "RmsProp.step",
                 "CaptionModel.forward", "LstmModel.forward", "LstmModel.step",
                 "cli.synth_corpus", "training.save_checkpoint"}
    assert patched == expected
    assert changed(before, snapshot()) == set()
