"""Reference triple-file parser and id assignment, kept as the judge of
``data.load_graph`` and ``data.build_graph``.

This is the per-line parser and the two-pass id assignment the package
first shipped: file iteration (universal newlines) with one ``split``
per line, then a vocabulary built in first-seen order and every label
looked up in it. A line's field count is checked before its fields are
checked for an empty one, with the package's messages. It does not
catch invalid UTF-8, so comparisons use files without it.
"""

from __future__ import annotations

from itertools import chain

from drekge.errors import ParseError


def ref_parse_file(path: str) -> list[tuple[str, str, str]]:
    triples = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(path, line_no,
                                 f"expected 3 tab-separated fields, got {len(fields)}")
            if "" in fields:
                name = ("head", "relation", "tail")[fields.index("")]
                raise ParseError(path, line_no, f"empty {name} field")
            triples.append((fields[0], fields[1], fields[2]))
    return triples


def ref_build_ids(train, valid, test):
    """(entity labels, relation labels, [train, valid, test] id triples):
    ids by first appearance over train, valid, test, head before tail."""
    rows = [*train, *valid, *test]
    entities = list(dict.fromkeys(chain.from_iterable((h, t)
                                                      for h, _, t in rows)))
    relations = list(dict.fromkeys(r for _, r, _ in rows))
    ent = {label: i for i, label in enumerate(entities)}
    rel = {label: i for i, label in enumerate(relations)}
    splits = [[(ent[h], rel[r], ent[t]) for h, r, t in split]
              for split in (train, valid, test)]
    return entities, relations, splits
