"""Output sets written all or nothing, the canonical JSON and CSV text, and
the one check of the JSON the package reads back.

Inside `with staged_files(out_dir) as stage:`, `stage.path(name)` hands out
a temporary path in out_dir for the file `name`, and `stage.write(name,
text)` writes ascii text to one. When the block ends cleanly and no name is
taken by a directory, every file is renamed onto its name in the order
staged. On any error every temporary is deleted, and so is every directory
the block made; files already in out_dir are left as they were.

Each JSON file the package reads back has a schema table here, and
`checked_json` parses its text against it. A fault raises ValueError in one
of three forms: `<path>: not a JSON object`, `<path>: <entry> missing` or
`<path>: <entry> <value!r> is not <wanted>`, the entry named as
`samples[3].label`.
"""

import contextlib
import errno
import json
import math
import os
from collections import namedtuple
from pathlib import Path


def json_text(value):
    """The canonical JSON text: sorted keys, 2-space indent, ascii, one
    trailing newline."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def csv_text(header, rows):
    """The header, then one line per row, cells as str() gives them (a
    float as its repr) joined by commas; every line ends in a newline."""
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


# A schema table maps each entry a reader uses to a table (an object of
# those entries), to [table] (a list of such objects) or to an Entry: the
# words for the values it takes, and the test of them. A bool is no int.
Entry = namedtuple("Entry", "wanted test")
_LIST = Entry("a list", lambda v: type(v) is list)
_CONTAINERS = {dict: Entry("a JSON object", lambda v: type(v) is dict),
               list: _LIST}
_INT = Entry("an int", lambda v: type(v) is int)
_COUNT = Entry("an int >= 0", lambda v: type(v) is int and v >= 0)
_POSITIVE = Entry("an int >= 1", lambda v: type(v) is int and v >= 1)
_STRING = Entry("a string", lambda v: type(v) is str)
_NULL = Entry("null", lambda v: v is None)
_FINITE = Entry("a finite number", lambda v: type(v) is int
                or type(v) is float and math.isfinite(v))
_UNIT = Entry("a number in [0, 1]", lambda v: _FINITE.test(v) and 0 <= v <= 1)


def _shape(rank):
    return Entry(f"a list of ints >= 0, {rank} long", lambda v: type(v) is list
                 and len(v) == rank and all(map(_COUNT.test, v)))


# a dataset's manifest.json. Comparisons check the rest: each label against
# features.csv, image_dims by the pooled grid and against config.image_dims
MANIFEST_TABLE = {
    "n_samples": _POSITIVE, "seed": _COUNT, "image_dims": _LIST,
    "config": {"image_dims": Entry("present", lambda v: True)},
    "class_counts": dict.fromkeys(("-1", "0", "1"), _COUNT),
    "content_hash": _STRING, "samples": [{"label": _INT}]}

# the JSON line of a model file's header
MODEL_HEADER_TABLE = {"n_features": _POSITIVE, "shapes": {
    "w1": _shape(2), "b1": _shape(1), "w2": _shape(2), "b2": _shape(1)}}


def train_meta_table(scenario):
    """train_meta_<scenario>.json as train writes it: both's threshold and
    its accuracy are numbers, every other scenario's null."""
    both = scenario == "both"
    return {"scenario": Entry(repr(scenario), lambda v: v == scenario),
            "dataset_hash": _STRING, "seed": _COUNT,
            "rate_threshold": _FINITE if both else _NULL,
            "threshold_accuracy": _UNIT if both else _NULL}


def checked_json(path, text, table):
    """The JSON object that text (str or bytes) holds, once it passes
    table; else ValueError naming path and the entry."""
    try:
        value = json.loads(text)
    except (ValueError, RecursionError):  # RecursionError: nested too deep
        value = None
    if type(value) is not dict:
        raise ValueError(f"{path}: not a JSON object")
    _check(path, None, value, table)
    return value


def _check(path, name, value, spec):
    """Check the value of the entry `name` against spec. name is a chain,
    None or (parent chain, key or index), made into text only on a fault."""
    entry = _CONTAINERS.get(type(spec), spec)
    if not entry.test(value):
        raise ValueError(f"{path}: {_name(name)} {value!r} is not "
                         f"{entry.wanted}")
    if type(spec) is list:
        for i, item in enumerate(value):
            _check(path, (name, i), item, spec[0])
    elif type(spec) is dict:
        for key, inner in spec.items():
            if key not in value:
                raise ValueError(f"{path}: {_name((name, key))} missing")
            _check(path, (name, key), value[key], inner)


def _name(chain):
    """A chain's entry name, as samples[3].label."""
    parent, key = chain
    key = f"[{key}]" if type(key) is int else f".{key}"
    return key[1:] if parent is None else _name(parent) + key


class Stage:
    """The temporaries of one staged_files block, by target name."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.staged = {}

    def path(self, name):
        temporary = self.out_dir / f".{name}.{os.getpid()}.tmp"
        self.staged[name] = temporary
        return temporary

    def write(self, name, text):
        self.path(name).write_text(text, encoding="ascii")


@contextlib.contextmanager
def staged_files(out_dir):
    """Make out_dir and yield a Stage whose files appear together when the
    block ends cleanly, and not at all when it raises."""
    out_dir = Path(out_dir)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    stage = Stage(out_dir)
    try:
        yield stage
        for name in stage.staged:
            if (out_dir / name).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                        str(out_dir / name))
        for name, temporary in stage.staged.items():
            os.replace(temporary, out_dir / name)
    except BaseException:
        for temporary in stage.staged.values():
            temporary.unlink(missing_ok=True)
        for directory in made:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
