"""The one presenter: where a command's text and files go.

``--json`` unset prints the text report; ``--json PATH`` prints it and
writes the JSON document; ``--json -`` sends only the JSON document to
stdout. Text and document are passed as callables so neither is built
when it is not wanted.
"""

from __future__ import annotations

import json
import sys


def show(args, render) -> None:
    """Print ``render()`` unless stdout is reserved for JSON."""
    if args.json != "-":
        print(render())


def export(args, build) -> None:
    """Write ``build()`` as the command's JSON document, if one was asked for."""
    if not args.json:
        return
    text = json.dumps(build(), sort_keys=True, indent=2) + "\n"
    if args.json == "-":
        sys.stdout.write(text)
        return
    with open(args.json, "w") as fh:
        fh.write(text)
    wrote(args.json)


def present(args, render, build) -> None:
    show(args, render)
    export(args, build)


def write_chrome(path: str, tracer, note: str, hostprof=None) -> None:
    """Write a Chrome/Perfetto trace-event file for one traced run."""
    with open(path, "w") as fh:
        json.dump(tracer.to_chrome_trace(hostprof=hostprof), fh, sort_keys=True)
    wrote(path, note)


def wrote(path: str, note: str = "") -> None:
    """Tell stderr which file a command wrote, with an optional note."""
    print(f"wrote {path}" + (f" ({note})" if note else ""), file=sys.stderr)
