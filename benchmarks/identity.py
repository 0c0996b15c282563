"""Byte identity of taan's output files between two source trees.

Run as ``python3 benchmarks/identity.py PARENT_TREE CHANGE_TREE CONFIG...``
with two checkouts (each holding ``src/taan``) and one or more JSON configs.
In each tree it runs, for each config in turn,
``python -m taan gen-data --config CONFIG --out D`` when the config's
``data`` has no ``csv`` source (gen-data writes only the synthetic
benchmark), ``python -m taan train --config CONFIG --out D`` and
``python -m taan analyze --out D``, and then once each
``python -m taan check bounds --seed 1 --out D``,
``python -m taan check gradients --seed 0`` and
``python -m taan check moments``: every subcommand.  Each command is a
child process that imports the
package from ``<tree>/src`` (``PYTHONPATH``) without writing bytecode
(``PYTHONDONTWRITEBYTECODE=1``), in the caller's working directory, so file
names in a config resolve as they do for ``taan``; every ``D`` lies in a
temporary directory removed at the end.

Each command's stdout counts as one more file, ``stdout/NN-COMMAND`` (its
place in the run and its subcommand words), with the tree's output
directory replaced by ``OUT``: the files hold neither ``check bounds``'
verdict line nor ``train``'s final-loss line.

It prints one line per output file: ``same`` or ``DIFF``, the file's sha256
in each tree (``-`` where that tree did not write it) and its path under
the tree's output directory.  Exit status: 0 when both trees wrote the same
files with the same bytes, 1 when a file differs or only one tree wrote it,
2 on a usage error or a command that exits non-zero.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

USAGE = "usage: python3 benchmarks/identity.py PARENT_TREE CHANGE_TREE CONFIG..."


def commands(configs, out):
    """The ``taan`` argument lists, in order, writing under ``out``."""
    argvs = []
    for i, config in enumerate(configs):
        run = str(out / f"config{i}")
        data = json.loads(config.read_text(encoding="utf-8")).get("data") or {}
        if data.get("csv") is None:
            argvs.append(["gen-data", "--config", str(config), "--out", run])
        argvs.append(["train", "--config", str(config), "--out", run])
        argvs.append(["analyze", "--out", run])
    argvs.append(["check", "bounds", "--seed", "1", "--out", str(out / "bounds")])
    argvs.append(["check", "gradients", "--seed", "0"])
    argvs.append(["check", "moments"])
    return argvs


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def tree_hashes(tree, configs, out):
    """Run every command from ``tree``'s source; path under ``out`` ->
    sha256 of each file written, and ``stdout/NN-COMMAND`` -> sha256 of each
    command's stdout.  RuntimeError if a command fails."""
    env = dict(
        os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1"
    )
    hashes = {}
    for i, argv in enumerate(commands(configs, out)):
        proc = subprocess.run(
            [sys.executable, "-m", "taan", *argv],
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{tree}: taan {' '.join(argv)} exited {proc.returncode}: "
                f"{proc.stderr.strip()}"
            )
        words = "-".join(arg for arg in argv[:2] if not arg.startswith("-"))
        stdout = proc.stdout.replace(str(out), "OUT")
        hashes[f"stdout/{i:02d}-{words}"] = sha256(stdout.encode("utf-8"))
    for path in sorted(out.rglob("*")):
        if path.is_file():
            hashes[path.relative_to(out).as_posix()] = sha256(path.read_bytes())
    return hashes


def compare(parent, change):
    """One report line per file of either tree, and the count that differ."""
    lines, differ = [], 0
    for name in sorted(set(parent) | set(change)):
        a, b = parent.get(name, "-"), change.get(name, "-")
        differ += a != b
        lines.append(f"{'same' if a == b else 'DIFF'}  {a:<64}  {b:<64}  {name}")
    return lines, differ


def main(argv):
    if len(argv) < 3 or any(arg.startswith("-") for arg in argv):
        print(USAGE, file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv[:2]]
    configs = [Path(arg).resolve() for arg in argv[2:]]
    missing = [str(t) for t in trees if not (t / "src" / "taan").is_dir()]
    missing += [str(c) for c in configs if not c.is_file()]
    if missing:
        print(f"error: not found: {', '.join(missing)}\n{USAGE}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="taan-identity-") as tmp:
        try:
            parent, change = (
                tree_hashes(tree, configs, Path(tmp) / tag)
                for tag, tree in zip(("parent", "change"), trees)
            )
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    lines, differ = compare(parent, change)
    print(f"{'':4}  {'parent sha256':<64}  {'change sha256':<64}  file")
    print("\n".join(lines))
    print(f"{len(lines)} files, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
