"""The README's command-line examples, run as written.

Every `$ pvrh ...` line of the README's Command line section runs
in-process, in a scratch directory holding the JSON files that section
defines (each ```json block is saved under the last `*.json` name the
prose before it mentions). Each command must exit 0; an output line the
README prints in full must match byte for byte, and one cut short with
"..." must match up to the cut.
"""

import json
import re
import shlex
from pathlib import Path

from pvrh import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _command_line_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Command line\n")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def _files_and_commands():
    """({file name: JSON text}, [(command, printed output or None)])."""
    files, commands = {}, []
    prose = []
    blocks = re.split(r"^```(\w*)\n(.*?)^```\n", _command_line_section(),
                      flags=re.S | re.M)
    # re.split yields prose, then (language, body) pairs, then prose again
    for i in range(0, len(blocks), 3):
        prose.append(blocks[i])
        if i + 2 >= len(blocks):
            break
        lang, body = blocks[i + 1], blocks[i + 2]
        if lang == "json":
            name = re.findall(r"`([\w.-]+\.json)`", "".join(prose))[-1]
            files[name] = body
        elif lang == "sh":
            for line in body.splitlines():
                if line.startswith("$ pvrh "):
                    commands.append((line[len("$ pvrh "):], None))
                elif line.strip() and commands:
                    commands[-1] = (commands[-1][0], line)
    return files, commands


FILES, COMMANDS = _files_and_commands()


def test_readme_section_parses():
    assert set(FILES) == {"pair.json", "r1.json"}
    assert len(COMMANDS) == 12
    for text in FILES.values():
        json.loads(text)


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PVRH_TOL", raising=False)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    for command, printed in COMMANDS:
        argv = shlex.split(command)
        target = None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[-1]
        status = cli.main(argv)
        out = capsys.readouterr().out
        assert status == 0, (command, out)
        if target is not None:
            (tmp_path / target).write_text(out, encoding="utf-8")
        if printed is None:
            continue
        if printed.endswith("...}"):
            assert out.startswith(printed[:-len("...}")]), (command, out)
        else:
            assert out == printed + "\n", command
    for plot in ("sweep.csv", "ray.csv"):
        assert (tmp_path / plot).read_text(encoding="utf-8").count("\n") > 2
