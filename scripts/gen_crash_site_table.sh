#!/usr/bin/env bash
# Regenerate the two doc tables that come from the binaries:
#
#   - DESIGN.md's crash-site inventory, from --list-crash-sites
#     (fault::crashSiteCatalog(), the single source of truth);
#   - README.md's flag table, from the --help of experiments, fleet_storm
#     and fuzz, which between them print every flag row.
#
#   scripts/gen_crash_site_table.sh [path-to-experiments]
#
# fleet_storm and fuzz are taken from the same directory.  Run after
# adding a crash site or editing a flag; scripts/ci.sh regenerates both
# tables and fails on drift, and the begin/end markers keep the
# regeneration exact.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${1:-build/bench/experiments}
DIR=$(dirname "${BIN}")
for b in "${BIN}" "${DIR}/fleet_storm" "${DIR}/fuzz"; do
    [[ -x "${b}" ]] || { echo "no such binary: ${b}" >&2; exit 1; }
done

SITES=$("${BIN}" --list-crash-sites) \
HELP=$("${BIN}" --help && "${DIR}/fleet_storm" --help && "${DIR}/fuzz" --help) \
python3 - <<'PY'
import os
import pathlib
import re

def splice(path, marker, table):
    doc = pathlib.Path(path)
    text = doc.read_text()
    begin = f"<!-- {marker}:begin (scripts/gen_crash_site_table.sh) -->"
    i = text.index(begin) + len(begin)
    j = text.index(f"<!-- {marker}:end -->")
    doc.write_text(text[:i] + "\n" + table + text[j:])

sites = [line.split(None, 1) for line in os.environ["SITES"].splitlines()]
splice("DESIGN.md", "crash-site-table",
       "| Site | Meaning |\n| --- | --- |\n" +
       "".join(f"| `{site}` | {meaning} |\n" for site, meaning in sites))
print(f"DESIGN.md: crash-site table regenerated ({len(sites)} sites)")

# A "<title>:" line opens a flag table and any other unindented line
# closes it; each row in a table reads "  --name V  help (default D)
# (env E)".
row = re.compile(r"  (--\S+(?: \S+)?)  +(.*?)"
                 r"(?: \(default ([^()]*)\))?(?: \(env (\S+)\))?$")
table, titles, title = "", set(), None
for line in os.environ["HELP"].splitlines():
    if not line.startswith(" "):
        title = line[:-1] if line.endswith(":") else None
        if title in titles:
            title = None
        elif title:
            titles.add(title)
            table += f"| **{title}** | | | |\n"
    elif title and (m := row.match(line)):
        flag, effect, default, env = m.groups()
        effect = effect.replace("*", "\\*")
        table += (f"| `{flag}` | {f'`{env}`' if env else '—'} "
                  f"| {default or '—'} | {effect} |\n")
splice("README.md", "flag-table",
       "| Flag | Env | Default | Effect |\n| --- | --- | --- | --- |\n" +
       table)
print(f"README.md: flag table regenerated ({table.count('`--')} flags)")
PY
