"""Output sets written all or nothing, and the canonical JSON and CSV text.

Inside `with staged_files(out_dir) as stage:`, `stage.path(name)` hands out
a temporary path in out_dir for the file `name`, and `stage.write(name,
text)` writes ascii text to one. When the block ends cleanly and no name is
taken by a directory, every file is renamed onto its name in the order
staged. On any error every temporary is deleted, and so is every directory
the block made; files already in out_dir are left as they were.
"""

import contextlib
import errno
import json
import os
from pathlib import Path


def json_text(value):
    """The canonical JSON text: sorted keys, 2-space indent, ascii, one
    trailing newline."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def csv_text(header, rows):
    """The header, then one line per row, cells as str() gives them (a
    float as its repr) joined by commas; every line ends in a newline."""
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


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
