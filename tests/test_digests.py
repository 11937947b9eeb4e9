"""tools/digests.py: outputs do not depend on the process that makes them."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "digests.py"


def digests(*args, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)


def test_tiny_digests_agree_across_hash_seeds(tmp_path):
    paths = []
    for hash_seed in ("0", "1"):
        made = digests("--tiny", ROOT / "src", hash_seed=hash_seed)
        assert made.returncode == 0, made.stderr
        paths.append(tmp_path / f"hash{hash_seed}.json")
        paths[-1].write_text(made.stdout)
    same = digests("--compare", *paths)
    assert same.returncode == 0, same.stdout
    names = sorted(json.loads(paths[0].read_text()))
    assert f"{len(names)} of {len(names)} digests equal" in same.stdout
    assert "cli/lstm/metrics.csv" in names and "lstm/max_steps=15/probe" in names

    table = json.loads(paths[1].read_text())
    table["cnn/max_steps=8/beam3"] = "0" * 64
    paths[1].write_text(json.dumps(table))
    differ = digests("--compare", *paths)
    assert differ.returncode == 1
    assert "differs: cnn/max_steps=8/beam3" in differ.stdout
    assert f"{len(names) - 1} of {len(names)} digests equal" in differ.stdout


def test_a_one_ulp_change_in_a_checkpoint_is_named(tmp_path):
    # A copy of the source whose save_checkpoint writes one parameter
    # element one ulp up: every checkpoint digest must differ.
    planted = tmp_path / "src"
    shutil.copytree(ROOT / "src", planted, ignore=shutil.ignore_patterns("__pycache__"))
    module = planted / "captionkit" / "checkpoint.py"
    line = ('    blobs = (t.data.astype("<f8", copy=False).tobytes() '
            'for t in model.parameters().values())\n')
    source = module.read_text()
    assert source.count(line) == 1
    module.write_text(source.replace(line, (
        '    arrays = [t.data.astype("<f8") for t in model.parameters().values()]\n'
        '    arrays[0].flat[0] = np.nextafter(arrays[0].flat[0], np.inf)\n'
        '    blobs = (a.tobytes() for a in arrays)\n')))
    paths = []
    for name, tree in (("original", ROOT / "src"), ("planted", planted)):
        made = digests("--tiny", tree)
        assert made.returncode == 0, made.stderr
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(made.stdout)
    differ = digests("--compare", *paths)
    assert differ.returncode == 1
    ckpts = [name for name in json.loads(paths[0].read_text()) if name.endswith(".ckpt")]
    assert "cnn/max_steps=8/best.ckpt" in ckpts and "cli/lstm/checkpoints/last.ckpt" in ckpts
    assert [name for name in ckpts if f"differs: {name}\n" not in differ.stdout] == []
