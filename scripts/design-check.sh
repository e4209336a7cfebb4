#!/usr/bin/env bash
# DESIGN.md describes the code that exists, in at most 40 KiB. Fails when
# the file is over 40,960 bytes, or when a backticked CamelCase name in it
# (`SrbFs`, `srb::Replicator`, `TaskStep::{Sleep, Done}`) is neither a
# struct, enum, trait, type, fn, const, static or mod nor an enum variant
# defined under crates/*/src or benchmark/src. Fenced code blocks are not
# checked. STD lists the standard-library names the text may use.
#
# usage: scripts/design-check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

exec python3 - <<'EOF'
import pathlib, re, sys

LIMIT = 40960
STD = {"Arc", "BTreeMap", "DefaultHasher", "None", "Some", "Vec"}

design = pathlib.Path("DESIGN.md").read_bytes()
failed = False
if len(design) > LIMIT:
    print(f"DESIGN.md is {len(design)} bytes, over {LIMIT}")
    failed = True

# Every name the sources define. Comments, strings and char literals go
# first, so a brace inside one cannot end an enum body early.
item = re.compile(r"\b(?:struct|enum|trait|type|fn|const|static|mod)\s+(\w+)")
noise = re.compile(r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\])*"|\'(?:\\.|[^\\\'])\'', re.S)
defined = set()
sources = sorted(pathlib.Path(".").glob("crates/*/src/**/*.rs"))
sources += sorted(pathlib.Path("benchmark/src").glob("**/*.rs"))
for path in sources:
    src = noise.sub(" ", path.read_text())
    defined.update(item.findall(src))
    for head in re.finditer(r"\benum\s+\w+[^{;]*\{", src):
        # A variant is the first name after the body's opening brace or a
        # comma at the body's own nesting level.
        depth, expect = 0, True
        for tok in re.finditer(r"#\[[^\]]*\]|[{}()\[\]<>,]|\w+", src[head.end():]):
            t = tok.group(0)
            if t in "{([<":
                depth += 1
            elif t in ")]>":
                depth -= 1
            elif t == "}":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and t == ",":
                expect = True
            elif depth == 0 and expect and t[0].isalpha():
                defined.add(t)
                expect = False

# Fenced blocks become blank lines, so line numbers still match the file.
text = re.sub(r"^```.*?^```", lambda m: "\n" * m.group(0).count("\n"),
              design.decode(), flags=re.M | re.S)
for span in re.finditer(r"`([^`]+)`", text):
    for name in re.findall(r"\b[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*\b", span.group(1)):
        if name not in defined and name not in STD:
            line = text.count("\n", 0, span.start()) + 1
            print(f"DESIGN.md:{line}: `{name}` names nothing in crates/*/src or benchmark/src")
            failed = True
sys.exit(1 if failed else 0)
EOF
