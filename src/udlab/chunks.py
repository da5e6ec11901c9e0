"""Documents as iterators of text chunks, and the batches they are written in.

A command writes its document as it formats it, so it holds its working set
and not its output.  The JSON writers give the bytes of
json.dumps(payload, indent=2) + "\n", and the CSV writer those of one
csv.writer over the whole table.
"""

from __future__ import annotations

import json
from itertools import islice
from types import SimpleNamespace
from typing import Iterable, Iterator

# Characters per write: unbuffered, every write to stdout is a system call.
BATCH = 1 << 16


def batches(chunks: Iterable[str]) -> Iterator[str]:
    """The chunks joined into runs of about BATCH characters, the last
    (perhaps empty) one included."""
    batch, size = [], 0
    for chunk in chunks:
        batch.append(chunk)
        size += len(chunk)
        if size >= BATCH:
            yield "".join(batch)
            batch, size = [], 0
    yield "".join(batch)


def json_doc(payload: dict) -> tuple[str]:
    return (json.dumps(payload, indent=2) + "\n",)


def json_list_doc(head: dict, key: str, items: Iterable) -> Iterator[str]:
    """json.dumps({**head, key: list(items)}, indent=2) + "\n": the head's
    keys, then the items 64 to a chunk (json.dumps with indent sets up its
    encoder anew per call).  A run dumped as a list, less its brackets, is
    indented one level deeper by its line breaks, which fall between tokens."""
    yield json.dumps(head, indent=2)[:-2] + f",\n  {json.dumps(key)}: ["
    items = iter(items)
    separator = ""
    while run := list(islice(items, 64)):
        yield separator + json.dumps(run, indent=2)[1:-2].replace("\n", "\n  ")
        separator = ","
    yield "\n  ]\n}\n" if separator else "]\n}\n"


def csv_doc(config: dict, header: list[str], rows: Iterable[list]) -> Iterator[str]:
    """A `# config:` line, then the header and each row as one CSV line."""
    import csv  # loaded only by the runs that write CSV

    yield "# config: " + json.dumps(config, separators=(",", ":")) + "\n"
    # writerow returns what its file's write returns: here, the line itself.
    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    yield writer.writerow(header)
    yield from map(writer.writerow, rows)
