#!/usr/bin/env python3
"""Metric catalogue drift gate (stdlib only).

docs/observability.md carries a catalogue of every metric the process
exports. This script takes a live Prometheus scrape of the stats
server's /metrics endpoint (a saved file or a URL), or the flat JSON
export (`scprt_cli ... --metrics-json FILE`, the stats server's
/metrics.json), and fails if it exposes a metric the catalogue does not
document — so a new counter, gauge or histogram cannot land
undocumented. In the JSON export every key must map back to a
catalogued name: dots become underscores, and a histogram's keys add
_count, _sum, _max, _p50, _p95 and _p99.

A JSON export must also be consistent in time: the process uptime
covers every one-thread nanosecond sum in UPTIME_COVERS, so
process_uptime_seconds * 1e9 >= ingest_quantum_process_ns_sum. An uptime
anchored late (at the first metrics read rather than at process start)
fails it.

Catalogued metrics missing from the scrape are reported but never
fatal: a given run only exercises the paths it ran (a non-durable
ingest records no wal.* samples, a run without --store-dir no
store.*).

Usage: check_metric_catalogue.py (--scrape FILE | --url URL | --json FILE)
                                 [--doc docs/observability.md]

Exits 0 on a fully catalogued export, 1 on undocumented metrics (or a
JSON export that is not one flat object of numbers), 2 on setup errors
(unreadable input / no catalogue tables found).
"""

import argparse
import json
import pathlib
import re
import sys
import urllib.request

# Backticked names inside the catalogue tables: full dotted names, or
# the leading-dot shorthand (`ingest.records_read`, `.malformed`)
# that borrows the previous full name's prefix.
NAME_RE = re.compile(r"`(\.?[a-z0-9_.]+)`")

# One line per metric in the exposition format; histograms surface as
# a single TYPE line plus _bucket/_sum/_count sample lines.
TYPE_RE = re.compile(r"^# TYPE (scprt_[A-Za-z0-9_]+) ", re.MULTILINE)

# The keys RegistrySnapshot::FormatJson expands one histogram into.
HISTOGRAM_SUFFIXES = ("_count", "_sum", "_max", "_p50", "_p95", "_p99")

def catalogue_names(doc_text):
    """Dotted metric name -> type cell from the catalogue tables, with the
    leading-dot shorthand expanded."""
    names = {}
    in_catalogue = False
    for line in doc_text.splitlines():
        if line.startswith("### Metric catalogue"):
            in_catalogue = True
            continue
        if in_catalogue and line.startswith("## "):
            break
        if not in_catalogue or not line.startswith("|"):
            continue
        cells = line.split("|")
        kind = cells[2].strip() if len(cells) > 2 else ""
        prefix = ""
        for token in NAME_RE.findall(cells[1]):
            if token.startswith("."):
                names[prefix + token[1:]] = kind
            else:
                names[token] = kind
                prefix = token.rsplit(".", 1)[0] + "." if "." in token else ""
    return names


def scraped_names(scrape_text):
    """Exported metric names, scprt_ prefix stripped, from TYPE lines."""
    return {match[len("scprt_"):] for match in TYPE_RE.findall(scrape_text)}


class JsonObject(list):
    """A JSON object kept as its (key, value) pairs, repeats included."""


def json_names(keys, documented):
    """Flat metric names behind the keys of one flat JSON export.

    A key names a counter or gauge as is, or a histogram with one of
    HISTOGRAM_SUFFIXES; a key that maps to no catalogued metric is
    returned as is, so the caller reports it undocumented."""
    histograms = {name.replace(".", "_") for name, kind in documented.items()
                  if kind == "histogram"}
    names = set()
    for key in keys:
        base = next((key[:-len(suffix)] for suffix in HISTOGRAM_SUFFIXES
                     if key.endswith(suffix)
                     and key[:-len(suffix)] in histograms), None)
        names.add(base if base is not None else key)
    return names


def main():
    parser = argparse.ArgumentParser()
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--scrape", help="saved /metrics response")
    source.add_argument("--url", help="live /metrics URL to fetch")
    source.add_argument("--json", help="flat JSON export (--metrics-json)")
    parser.add_argument("--doc", default="docs/observability.md")
    args = parser.parse_args()

    if args.scrape or args.json:
        path = pathlib.Path(args.scrape or args.json)
        if not path.exists():
            print(f"::error::input not found: {path}")
            return 2
        scrape = path.read_text(encoding="utf-8")
    else:
        try:
            with urllib.request.urlopen(args.url, timeout=10) as response:
                scrape = response.read().decode("utf-8")
        except OSError as error:
            print(f"::error::cannot fetch {args.url}: {error}")
            return 2

    doc = pathlib.Path(args.doc)
    if not doc.exists():
        print(f"::error::doc not found: {doc}")
        return 2
    documented = catalogue_names(doc.read_text(encoding="utf-8"))
    if not documented:
        print(f"::error::{doc}: no catalogue tables found")
        return 2
    # The scrape flattens dots to underscores; compare in flat space.
    documented_flat = {name.replace(".", "_") for name in documented}

    malformed = []
    if args.json:
        try:
            export = json.loads(scrape, object_pairs_hook=JsonObject)
        except ValueError as error:
            print(f"::error::{args.json}: not one JSON object: {error}")
            return 1
        if not isinstance(export, JsonObject):
            print(f"::error::{args.json}: not one JSON object")
            return 1
        keys = [key for key, _ in export]
        malformed += [f"key {key} appears {keys.count(key)} times"
                      for key in sorted(set(keys)) if keys.count(key) > 1]
        malformed += [f"key {key} is not a number" for key, value in export
                      if not isinstance(value, (int, float))
                      or isinstance(value, bool)]
        exported = json_names(keys, documented)
        values = dict(export)
        # The driver thread records every quantum's processing time, so
        # the process must have been up at least that long.
        uptime = values.get("process_uptime_seconds")
        busy = values.get("ingest_quantum_process_ns_sum")
        if (isinstance(uptime, (int, float))
                and isinstance(busy, (int, float)) and uptime * 1e9 < busy):
            malformed.append(f"process_uptime_seconds {uptime} s is shorter "
                             f"than ingest_quantum_process_ns_sum {busy} ns")
    else:
        exported = scraped_names(scrape)
    if not exported:
        print("::error::export contains no metrics")
        return 2

    undocumented = sorted(exported - documented_flat)
    unexercised = sorted(documented_flat - exported)

    # Names as the input spells them: the JSON export has no scprt_ prefix.
    label = "" if args.json else "scprt_"
    for name in unexercised:
        print(f"note: catalogued but not in this export: {label}{name}")
    for problem in malformed:
        print(f"::error::{args.json}: {problem}")
    for name in undocumented:
        print(f"::error::exported but not in the {doc} catalogue: "
              f"{label}{name}")
    if malformed or undocumented:
        return 1
    print(f"check_metric_catalogue: all {len(exported)} exported metrics "
          "are catalogued")
    return 0


if __name__ == "__main__":
    sys.exit(main())
