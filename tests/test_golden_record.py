"""Golden record: the sha256 of every byte-stable output of
generate -> train -> eval -> curves for one small config and seed.

The hashes were recorded with the four scenarios trained one after another
in the calling process; the test runs the chain on one and on two allowed
CPUs. A change that alters any hash changes output bytes: it must say why
and record the new hashes here. The bytes come from floating-point sums and
elementary functions, so they hold for the stack and the host they were
recorded on: numpy 2.4 and its bundled OpenBLAS 0.3.31 on x86-64, with
numpy dispatching its X86_V4 (AVX-512) loops, which fix the bytes of
float64 exp, log and arctan2, and OpenBLAS running a SkylakeX-class core,
which fixes those of the matrix products. On a CPU without AVX-512 (numpy
stops at X86_V3, OpenBLAS picks Haswell kernels) the record is expected to
differ: that is another host, not a regression. CI's "Check the machine"
step prints both.

The chain runs a 64-element surface. A second record pins the dataset files
of the default GeneratorConfig, whose 8000-element surface is what every
command uses unless told otherwise.
"""

import hashlib

import pytest

from conftest import allow_cpus
from risblock.cli import main
from risblock.dataset import GeneratorConfig, save_dataset

CONFIG = """\
[generator]
n_samples = 200
n_ris_elements = 64

[experiment]
seed = 3
"""

GOLDEN = {
    "curves/curves.csv":
        "270c88829125e4f927a7ed6bd1dc8e75846c43a807fb3ba9310f8161f83c843f",
    "curves/curves.svg":
        "a9c7f38c47303cdb07fa9a27816ea27877ac08dab2676732690b6e07c9ed7f1a",
    "dataset/features.csv":
        "789b06e1422d8fd434d9ebf0b54030f295c0adf85cd58d968f9c9f6328b37ffe",
    "dataset/images.bin":
        "c954e5ce5d2c38e84ff8e78d6375be72dde9376a6a1aeb3dab23e1eb6d17ffe3",
    "dataset/manifest.json":
        "8f147a5a3ac27242996672113184086acc50d90dedad8260c545e46c8f267ffe",
    "models/history_both.csv":
        "00706e5a11d97191681cee883e5fdbc740c38a9c87dbf3f24ed39b07dc81ed48",
    "models/history_camera.csv":
        "723a77d04b3202f4a441425b1cf03ea43923d20615f67655595a48cf9b70a7ca",
    "models/history_none.csv":
        "cc140a46c5d6256fdae6a79bbcc17820b30f28d109e26bf5ac570ec5b9b052a5",
    "models/history_ris.csv":
        "0645fdda443575bc39d21d17e79001410b800ca15b352f43298b7b18c91fdd96",
    "models/model_both.bin":
        "6085011464d53a76c60fa68eaed12080431e513c6040ebaa32bcf29e4fc339c2",
    "models/model_camera.bin":
        "71d5e688e3bed91d00ac7c4695aeaf35737f3cf1f32f26323218e8c64a00385f",
    "models/model_none.bin":
        "56fd804b4da4507b713c02eca6c2e4327881682ccc3b156a16fa888e53b1ae99",
    "models/model_ris.bin":
        "35a0be4cdf9950f336144683b4f5d187ec6a4122c32aca61cb601c7bdc58fcf3",
    "models/train_meta_both.json":
        "5ac51d53a203c6f00563c772fbb571e01ba74dc9db91a5916849c4ac37e95beb",
    "models/train_meta_camera.json":
        "19a31d1ddde583a93aa82a2f1848ae611eb613de84ff41d4d84c36c7e5e24088",
    "models/train_meta_none.json":
        "50de367c40f64a25dc05e2e4d2cae16ee5a308fe90c6c1d851ecb879445a5312",
    "models/train_meta_ris.json":
        "bb2d7176a98e945965ead175ca47e3173f134791cdd8540a2cc8bd2c62481735",
    "reports/confusion_both.csv":
        "11674458c62b4c73e7bc568f70bb1db690ad884055e9a3a7ac7d629126f08827",
    "reports/confusion_camera.csv":
        "aef23306ad29419bccda6083b345a2db050f49c27574aa7158a3b2bc074e3ea3",
    "reports/confusion_none.csv":
        "90e8a173fe4380f76a34527b9cbe69ddb5bc6b848c690b79dce503ecbbd433af",
    "reports/confusion_ris.csv":
        "90e8a173fe4380f76a34527b9cbe69ddb5bc6b848c690b79dce503ecbbd433af",
    "reports/curve_both.csv":
        "a2f8b489c3bb2907695f2ec28bcb6a714f6b4eb535bc93c40f736cfff327e971",
    "reports/curve_camera.csv":
        "dd60d898af89435be4190a129e9c2ac0bb73ef704ffb9315a33b3230294718d4",
    "reports/curve_none.csv":
        "dbbfe709c67ca34c366252dcb6bd1d89760dbd2cb4a9542b65bca9954db68441",
    "reports/curve_ris.csv":
        "3adf940a17e6310bf51b6e8964c0f1b387202a6d5437aa9a1869ec2255e6caf8",
    "reports/report_both.json":
        "d16e0ad285307e5e940843e694c0ac76079559e625f9140d816957f2468bc3ca",
    "reports/report_camera.json":
        "6c51f1a574bd653b8111d28eb0b9ab0f3108b9698e36f9d880d20b9870c0df28",
    "reports/report_none.json":
        "8250fd1cdd620bfc0be69823ab6f2616714c8cc807e14cd84517a8d429d1a9b7",
    "reports/report_ris.json":
        "54b563dcb35b2aa19147aaad45e9711574aa731c68c08f80679ec177443ae133",
}


def _run_chain(root):
    config = root / "config.ini"
    config.write_text(CONFIG, encoding="ascii")
    common = ["--config", str(config), "--dataset", str(root / "dataset")]
    assert main(["generate", "--config", str(config),
                 "--out", str(root / "dataset")]) == 0
    assert main(["train", *common, "--out", str(root / "models")]) == 0
    assert main(["eval", *common, "--models", str(root / "models"),
                 "--out", str(root / "reports")]) == 0
    assert main(["curves", "--results", str(root / "reports"),
                 "--out", str(root / "curves")]) == 0


@pytest.mark.parametrize("cpus", [1, 2])
def test_every_output_byte_matches_the_golden_record(tmp_path, monkeypatch,
                                                     cpus):
    allow_cpus(monkeypatch, cpus)
    _run_chain(tmp_path)
    produced = {
        path.relative_to(tmp_path).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file() and path.name not in ("config.ini", "timings.json")
    }
    changed = sorted(name for name in set(GOLDEN) | set(produced)
                     if GOLDEN.get(name) != produced.get(name))
    assert not changed, f"outputs differ from the golden record: {changed}"


DEFAULT_SURFACE_SEED = 5
DEFAULT_SURFACE_SAMPLES = 24  # 6 absent, 11 clear and 7 blocked at this seed

DEFAULT_SURFACE_GOLDEN = {
    "features.csv":
        "bac71755cca818ff2bb2955b94f33e070f768861b2da6ca512f3d0ead947b27d",
    "images.bin":
        "d43ecbe41e4dda4f08ddf15e5be8c81e930484ea52e6867149cfcde735b1f551",
}


@pytest.mark.parametrize("cpus", [1, 2])
def test_default_surface_dataset_matches_the_golden_record(tmp_path,
                                                           monkeypatch, cpus):
    allow_cpus(monkeypatch, cpus)
    save_dataset(tmp_path, GeneratorConfig(n_samples=DEFAULT_SURFACE_SAMPLES),
                 DEFAULT_SURFACE_SEED)
    produced = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in DEFAULT_SURFACE_GOLDEN}
    assert produced == DEFAULT_SURFACE_GOLDEN
