"""Byte-for-byte pins of the CLI's output on programs/*.pgcl.

Each entry is the SHA-256 of everything one command line prints: its
stdout, then its stderr, then its exit status.  After a deliberate change
of output, re-pin by running this file as a script from the repository
root (with src on PYTHONPATH); it prints the table.
"""

import contextlib
import hashlib
import io
import os
import pathlib

import pytest

from pastlab.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEDULERS = ("const:Ln", "const:Rn", "alt", "bounded:2:const:Ln", "random:3")


def command_lines():
    for path in sorted((ROOT / "programs").glob("*.pgcl")):
        program = f"programs/{path.name}"
        for scheduler in SCHEDULERS:
            yield (f"tree {program} --depth 10 --format json "
                   f"--scheduler {scheduler}")
            yield (f"run {program} --depth 25 --format json "
                   f"--scheduler {scheduler}")
            yield f"runtime {program} --depth 25 --scheduler {scheduler}"
        yield f"graph {program} --bound 200"
        yield f"ast-check {program} --delta 1/3 --n 12"


def digest(line: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(line.split())
    text = f"{out.getvalue()}{err.getvalue()}exit {status}\n"
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    "tree programs/choice_loop.pgcl --depth 10 --format json --scheduler const:Ln":
        "aee0664e7bb12c0fde0d7f969bab502a231454d6ba50c7a9e271368775088a02",
    "run programs/choice_loop.pgcl --depth 25 --format json --scheduler const:Ln":
        "ec9440db7ea5950e0f481a010e3836eecace9a74328798671a2f39c9a8b9e035",
    "runtime programs/choice_loop.pgcl --depth 25 --scheduler const:Ln":
        "9ff4671c0016a0d02075acbc189462469156b0e4488a6899db168d8342b8800c",
    "tree programs/choice_loop.pgcl --depth 10 --format json --scheduler const:Rn":
        "89de42b618036da64ded678e18dd9ccde50765eef67c6c41ae065964e5220992",
    "run programs/choice_loop.pgcl --depth 25 --format json --scheduler const:Rn":
        "25929073effdf40c37396c46bb7c313e935768ef2915e0e429901413d4d5ad9c",
    "runtime programs/choice_loop.pgcl --depth 25 --scheduler const:Rn":
        "c5456bf1569ade6e3f06b611455a55d5ab5e394323b79b4b4682504e2e45fc7c",
    "tree programs/choice_loop.pgcl --depth 10 --format json --scheduler alt":
        "aee0664e7bb12c0fde0d7f969bab502a231454d6ba50c7a9e271368775088a02",
    "run programs/choice_loop.pgcl --depth 25 --format json --scheduler alt":
        "ec9440db7ea5950e0f481a010e3836eecace9a74328798671a2f39c9a8b9e035",
    "runtime programs/choice_loop.pgcl --depth 25 --scheduler alt":
        "9ff4671c0016a0d02075acbc189462469156b0e4488a6899db168d8342b8800c",
    "tree programs/choice_loop.pgcl --depth 10 --format json --scheduler bounded:2:const:Ln":
        "aee0664e7bb12c0fde0d7f969bab502a231454d6ba50c7a9e271368775088a02",
    "run programs/choice_loop.pgcl --depth 25 --format json --scheduler bounded:2:const:Ln":
        "ec9440db7ea5950e0f481a010e3836eecace9a74328798671a2f39c9a8b9e035",
    "runtime programs/choice_loop.pgcl --depth 25 --scheduler bounded:2:const:Ln":
        "9ff4671c0016a0d02075acbc189462469156b0e4488a6899db168d8342b8800c",
    "tree programs/choice_loop.pgcl --depth 10 --format json --scheduler random:3":
        "89de42b618036da64ded678e18dd9ccde50765eef67c6c41ae065964e5220992",
    "run programs/choice_loop.pgcl --depth 25 --format json --scheduler random:3":
        "25929073effdf40c37396c46bb7c313e935768ef2915e0e429901413d4d5ad9c",
    "runtime programs/choice_loop.pgcl --depth 25 --scheduler random:3":
        "c5456bf1569ade6e3f06b611455a55d5ab5e394323b79b4b4682504e2e45fc7c",
    "graph programs/choice_loop.pgcl --bound 200":
        "1d3440f3e9cf17a10167f30e43f1ba14b13952332da503a44e85f981eed2a475",
    "ast-check programs/choice_loop.pgcl --delta 1/3 --n 12":
        "58b8c06013a75102962b59fca8b8bc61ef0ac3c70dbb8cadc8c66f5b7271f658",
    "tree programs/geometric.pgcl --depth 10 --format json --scheduler const:Ln":
        "9562c969214a8779b635227b3ba6eedfc2fc527695b157cc4d4cfe5ca37a417f",
    "run programs/geometric.pgcl --depth 25 --format json --scheduler const:Ln":
        "11f5bb8e35183ba4c68004871a27b49d43aac77e4bf008220d4d1e7dc2f2402d",
    "runtime programs/geometric.pgcl --depth 25 --scheduler const:Ln":
        "b613ad6bb94fe50ed0a4a86e47e5e4cfae41f2fb9a7a304c3b4693a9d99071ca",
    "tree programs/geometric.pgcl --depth 10 --format json --scheduler const:Rn":
        "9562c969214a8779b635227b3ba6eedfc2fc527695b157cc4d4cfe5ca37a417f",
    "run programs/geometric.pgcl --depth 25 --format json --scheduler const:Rn":
        "11f5bb8e35183ba4c68004871a27b49d43aac77e4bf008220d4d1e7dc2f2402d",
    "runtime programs/geometric.pgcl --depth 25 --scheduler const:Rn":
        "b613ad6bb94fe50ed0a4a86e47e5e4cfae41f2fb9a7a304c3b4693a9d99071ca",
    "tree programs/geometric.pgcl --depth 10 --format json --scheduler alt":
        "9562c969214a8779b635227b3ba6eedfc2fc527695b157cc4d4cfe5ca37a417f",
    "run programs/geometric.pgcl --depth 25 --format json --scheduler alt":
        "11f5bb8e35183ba4c68004871a27b49d43aac77e4bf008220d4d1e7dc2f2402d",
    "runtime programs/geometric.pgcl --depth 25 --scheduler alt":
        "b613ad6bb94fe50ed0a4a86e47e5e4cfae41f2fb9a7a304c3b4693a9d99071ca",
    "tree programs/geometric.pgcl --depth 10 --format json --scheduler bounded:2:const:Ln":
        "9562c969214a8779b635227b3ba6eedfc2fc527695b157cc4d4cfe5ca37a417f",
    "run programs/geometric.pgcl --depth 25 --format json --scheduler bounded:2:const:Ln":
        "11f5bb8e35183ba4c68004871a27b49d43aac77e4bf008220d4d1e7dc2f2402d",
    "runtime programs/geometric.pgcl --depth 25 --scheduler bounded:2:const:Ln":
        "b613ad6bb94fe50ed0a4a86e47e5e4cfae41f2fb9a7a304c3b4693a9d99071ca",
    "tree programs/geometric.pgcl --depth 10 --format json --scheduler random:3":
        "9562c969214a8779b635227b3ba6eedfc2fc527695b157cc4d4cfe5ca37a417f",
    "run programs/geometric.pgcl --depth 25 --format json --scheduler random:3":
        "11f5bb8e35183ba4c68004871a27b49d43aac77e4bf008220d4d1e7dc2f2402d",
    "runtime programs/geometric.pgcl --depth 25 --scheduler random:3":
        "b613ad6bb94fe50ed0a4a86e47e5e4cfae41f2fb9a7a304c3b4693a9d99071ca",
    "graph programs/geometric.pgcl --bound 200":
        "4d62a8ba96a7b83308efe3bb6849300a705b439ac75a18ad10b7798519798c53",
    "ast-check programs/geometric.pgcl --delta 1/3 --n 12":
        "caff8f38a0bbaaa67f4d8a41c2a061057a5f10a964ea09a8f3e973fdf74b5809",
    "tree programs/random_walk.pgcl --depth 10 --format json --scheduler const:Ln":
        "9a6777315d2143c046c50702baea1a4dc613d824165d0eed1023c0845c96c6af",
    "run programs/random_walk.pgcl --depth 25 --format json --scheduler const:Ln":
        "2451b9e1b0064e7299b8caec0009276e989e1cefada336ffbcc454d37c9486b5",
    "runtime programs/random_walk.pgcl --depth 25 --scheduler const:Ln":
        "204a7a0659707b2384bdf8faf79eccac3481d5530bf0e65a50d045b032ee8a30",
    "tree programs/random_walk.pgcl --depth 10 --format json --scheduler const:Rn":
        "9a6777315d2143c046c50702baea1a4dc613d824165d0eed1023c0845c96c6af",
    "run programs/random_walk.pgcl --depth 25 --format json --scheduler const:Rn":
        "2451b9e1b0064e7299b8caec0009276e989e1cefada336ffbcc454d37c9486b5",
    "runtime programs/random_walk.pgcl --depth 25 --scheduler const:Rn":
        "204a7a0659707b2384bdf8faf79eccac3481d5530bf0e65a50d045b032ee8a30",
    "tree programs/random_walk.pgcl --depth 10 --format json --scheduler alt":
        "9a6777315d2143c046c50702baea1a4dc613d824165d0eed1023c0845c96c6af",
    "run programs/random_walk.pgcl --depth 25 --format json --scheduler alt":
        "2451b9e1b0064e7299b8caec0009276e989e1cefada336ffbcc454d37c9486b5",
    "runtime programs/random_walk.pgcl --depth 25 --scheduler alt":
        "204a7a0659707b2384bdf8faf79eccac3481d5530bf0e65a50d045b032ee8a30",
    "tree programs/random_walk.pgcl --depth 10 --format json --scheduler bounded:2:const:Ln":
        "9a6777315d2143c046c50702baea1a4dc613d824165d0eed1023c0845c96c6af",
    "run programs/random_walk.pgcl --depth 25 --format json --scheduler bounded:2:const:Ln":
        "2451b9e1b0064e7299b8caec0009276e989e1cefada336ffbcc454d37c9486b5",
    "runtime programs/random_walk.pgcl --depth 25 --scheduler bounded:2:const:Ln":
        "204a7a0659707b2384bdf8faf79eccac3481d5530bf0e65a50d045b032ee8a30",
    "tree programs/random_walk.pgcl --depth 10 --format json --scheduler random:3":
        "9a6777315d2143c046c50702baea1a4dc613d824165d0eed1023c0845c96c6af",
    "run programs/random_walk.pgcl --depth 25 --format json --scheduler random:3":
        "2451b9e1b0064e7299b8caec0009276e989e1cefada336ffbcc454d37c9486b5",
    "runtime programs/random_walk.pgcl --depth 25 --scheduler random:3":
        "204a7a0659707b2384bdf8faf79eccac3481d5530bf0e65a50d045b032ee8a30",
    "graph programs/random_walk.pgcl --bound 200":
        "1d3440f3e9cf17a10167f30e43f1ba14b13952332da503a44e85f981eed2a475",
    "ast-check programs/random_walk.pgcl --delta 1/3 --n 12":
        "caff8f38a0bbaaa67f4d8a41c2a061057a5f10a964ea09a8f3e973fdf74b5809",
    "tree programs/unsound_rank.pgcl --depth 10 --format json --scheduler const:Ln":
        "8ae07e9b7f0c607f0ca9d68006e0c0fb20369244c38e4d6a4aa616822219434f",
    "run programs/unsound_rank.pgcl --depth 25 --format json --scheduler const:Ln":
        "29478dcd1a702c0bb84773db1af0a31cf424212114e86bd9404ec647f4413bbe",
    "runtime programs/unsound_rank.pgcl --depth 25 --scheduler const:Ln":
        "96d833acc7d98b7f6d759b57dbd25b2b7803e7dc34b9899c0e5f1bb9f8a5c600",
    "tree programs/unsound_rank.pgcl --depth 10 --format json --scheduler const:Rn":
        "8ae07e9b7f0c607f0ca9d68006e0c0fb20369244c38e4d6a4aa616822219434f",
    "run programs/unsound_rank.pgcl --depth 25 --format json --scheduler const:Rn":
        "29478dcd1a702c0bb84773db1af0a31cf424212114e86bd9404ec647f4413bbe",
    "runtime programs/unsound_rank.pgcl --depth 25 --scheduler const:Rn":
        "96d833acc7d98b7f6d759b57dbd25b2b7803e7dc34b9899c0e5f1bb9f8a5c600",
    "tree programs/unsound_rank.pgcl --depth 10 --format json --scheduler alt":
        "8ae07e9b7f0c607f0ca9d68006e0c0fb20369244c38e4d6a4aa616822219434f",
    "run programs/unsound_rank.pgcl --depth 25 --format json --scheduler alt":
        "29478dcd1a702c0bb84773db1af0a31cf424212114e86bd9404ec647f4413bbe",
    "runtime programs/unsound_rank.pgcl --depth 25 --scheduler alt":
        "96d833acc7d98b7f6d759b57dbd25b2b7803e7dc34b9899c0e5f1bb9f8a5c600",
    "tree programs/unsound_rank.pgcl --depth 10 --format json --scheduler bounded:2:const:Ln":
        "8ae07e9b7f0c607f0ca9d68006e0c0fb20369244c38e4d6a4aa616822219434f",
    "run programs/unsound_rank.pgcl --depth 25 --format json --scheduler bounded:2:const:Ln":
        "29478dcd1a702c0bb84773db1af0a31cf424212114e86bd9404ec647f4413bbe",
    "runtime programs/unsound_rank.pgcl --depth 25 --scheduler bounded:2:const:Ln":
        "96d833acc7d98b7f6d759b57dbd25b2b7803e7dc34b9899c0e5f1bb9f8a5c600",
    "tree programs/unsound_rank.pgcl --depth 10 --format json --scheduler random:3":
        "8ae07e9b7f0c607f0ca9d68006e0c0fb20369244c38e4d6a4aa616822219434f",
    "run programs/unsound_rank.pgcl --depth 25 --format json --scheduler random:3":
        "29478dcd1a702c0bb84773db1af0a31cf424212114e86bd9404ec647f4413bbe",
    "runtime programs/unsound_rank.pgcl --depth 25 --scheduler random:3":
        "96d833acc7d98b7f6d759b57dbd25b2b7803e7dc34b9899c0e5f1bb9f8a5c600",
    "graph programs/unsound_rank.pgcl --bound 200":
        "1d3440f3e9cf17a10167f30e43f1ba14b13952332da503a44e85f981eed2a475",
    "ast-check programs/unsound_rank.pgcl --delta 1/3 --n 12":
        "58b8c06013a75102962b59fca8b8bc61ef0ac3c70dbb8cadc8c66f5b7271f658",
}


@pytest.mark.parametrize("line", list(command_lines()))
def test_cli_output_is_pinned(line, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert digest(line) == GOLDEN.get(line), f"output of `pastlab {line}` changed"


if __name__ == "__main__":
    os.chdir(ROOT)
    for line in command_lines():
        print(f'    "{line}":\n        "{digest(line)}",')
