"""No mutated document makes the parser raise anything but DocumentError.

Every field of the 18 sample documents of test_documents (the first and
last element of each array) is dropped or replaced by null, -1, "x", [],
{} or 10**6, and each result is parsed: it must raise DocumentError or
give a value that serializes and parses back to the same bytes.  The
cases run in a child whose address space is capped (see
`test_derived_dims.py`), each under a 2 s alarm, so a parser that
allocates or loops on a declared size fails fast.
"""

import json
import os
from pathlib import Path
import subprocess
import sys

import catcx
from test_derived_dims import _cap_memory

CHILD = r"""
import json, random, signal, sys
from catcx.documents import DocumentError, parse_document, serialize_document
from test_documents import sample_objects

DROP = object()
VALUES = [DROP, None, -1, "x", [], {}, 10 ** 6]


def paths(node, prefix=()):
    items = (node.items() if isinstance(node, dict)
             else [(i, node[i]) for i in sorted({0, len(node) - 1})] if node else [])
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from paths(child, prefix + (key,))


def mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


def timeout(*_):
    raise TimeoutError("over 2 s")


signal.signal(signal.SIGALRM, timeout)
failures, cases = [], 0
for obj in sample_objects(random.Random(101)):
    doc = json.loads(serialize_document(obj))
    for path in paths(doc):
        for value in VALUES:
            cases += 1
            text = mutated(doc, path, value)
            signal.alarm(2)
            try:
                out = serialize_document(parse_document(text))
                if serialize_document(parse_document(out)) != out:
                    failures.append(f"{doc['type']} {path} {value!r}: no round trip")
            except DocumentError:
                pass
            except Exception as e:
                failures.append(f"{doc['type']} {path} {value!r}: {type(e).__name__}: {e}")
            signal.alarm(0)
print(json.dumps({"cases": cases, "failures": failures[:20]}))
"""


def test_mutated_documents_raise_only_document_errors():
    tests = Path(__file__).parent
    paths = [str(Path(catcx.__file__).parents[1]), str(tests), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    env.pop("CATCX_MAX_DIM", None)
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          env=env, timeout=120, preexec_fn=_cap_memory)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["cases"] > 3000
    assert result["failures"] == []
