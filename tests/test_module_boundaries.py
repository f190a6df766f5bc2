"""Module boundaries of torma's source: no module reads another's private names."""

import re
from pathlib import Path

import torma

# the aliases torma's modules import each other under (geo, gr, ha, ...)
PRIVATE_READ = re.compile(r"\b(geo|gr|ha|eq|sv|tf|mf|dg|pl)\._[A-Za-z]")


def test_no_module_reads_another_modules_private_names():
    hits = []
    for path in sorted(Path(torma.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if PRIVATE_READ.search(line):
                hits.append(f"{path.name}:{number}: {line.strip()}")
    assert not hits, "\n".join(hits)
