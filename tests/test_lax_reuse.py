"""What one lax composition builds once, by count rather than by clock.

In an 'augmented' pair every entry is one complex E and the cells repeat,
so one composition asks for the same associator, interchange and
tensor-map blocks several times.  Its memo builds each index map once
per key (every operand's window and support, with the associator's
direction or the interchange's side) and the blocks of f (x) g once per
pair of operands, and the result is the reference's, byte for byte.
What it hands out is shared, so no composition may change it.
"""

import random
from pathlib import Path

import catcx.chain
import catcx.laxmat
import lax_reference as ref
from catcx.chain import TensorMemo
from catcx.cli import run
from catcx.documents import serialize_document
from catcx.laxmat import lax_compose_delta1
from helpers import random_lax_matrix

GOLDEN = Path(__file__).resolve().parent / "golden"


def shape(X):
    return X.lo, X.hi, X.support


class Counts:
    """Requests of each kind with the key a request names, and builds.
    Operands keyed by identity are held, so that no identity is reused."""

    def __init__(self, monkeypatch):
        self.asked = {"assoc": [], "interchange": [], "blocks": []}
        self.built = {"assoc": 0, "interchange": 0, "blocks": 0}
        self.held = []
        self.keys = {
            "assoc": lambda X, Y, Z, memo, inverse=False: (
                shape(X), shape(Y), shape(Z), inverse),
            "interchange": lambda parts, P, K, side, memo: (
                side, shape(K), shape(P), *map(shape, parts)),
            "blocks": lambda f, g, memo: self.held.append((f, g)) or (id(f), id(g))}
        for kind, module, name in (("assoc", catcx.laxmat, "_assoc_perm"),
                                   ("interchange", catcx.laxmat, "_interchange"),
                                   ("blocks", catcx.chain, "tensor_map_blocks"),
                                   ("blocks", catcx.laxmat, "tensor_map_blocks")):
            monkeypatch.setattr(module, name, self.asking(kind, getattr(module, name)))
        for kind, module, name in (("assoc", catcx.laxmat, "_assoc_cols"),
                                   ("interchange", catcx.laxmat, "_interchange_cols"),
                                   ("blocks", catcx.chain, "_map_blocks")):
            monkeypatch.setattr(module, name, self.building(kind, getattr(module, name)))

    def asking(self, kind, real):
        def wrapped(*args, **kwargs):
            self.asked[kind].append(self.keys[kind](*args, **kwargs))
            return real(*args, **kwargs)
        return wrapped

    def building(self, kind, real):
        def wrapped(*args, **kwargs):
            self.built[kind] += 1
            return real(*args, **kwargs)
        return wrapped

    def distinct(self, kind):
        return len(set(self.asked[kind]))


def augmented_pair(seed):
    rng = random.Random(seed)
    m = random_lax_matrix(rng, "augmented")
    return random_lax_matrix(rng, "augmented", g=m.g_tgt), m


def test_an_augmented_composition_builds_each_key_once(monkeypatch):
    n, m = augmented_pair(4)
    counts = Counts(monkeypatch)
    got = lax_compose_delta1(n, m)
    for kind in ("assoc", "interchange", "blocks"):
        assert counts.built[kind] == counts.distinct(kind) < len(counts.asked[kind])
    # two interchanges per side, one key per side
    assert (len(counts.asked["interchange"]), counts.distinct("interchange")) == (4, 2)
    assert (len(counts.asked["assoc"]), len(counts.asked["blocks"])) == (19, 25)
    want = ref.lax_compose_delta1(n, m)
    for pretty in (False, True):
        assert serialize_document(got, pretty) == serialize_document(want, pretty)


def test_every_seeded_augmented_composition_builds_each_key_once(monkeypatch):
    counts = Counts(monkeypatch)
    for seed in range(12):
        n, m = augmented_pair(seed)
        for kind in counts.asked:
            counts.asked[kind].clear()
            counts.built[kind] = 0
        got = lax_compose_delta1(n, m)
        for kind in ("assoc", "interchange", "blocks"):
            assert counts.built[kind] == counts.distinct(kind)
        assert counts.distinct("assoc") < len(counts.asked["assoc"])
        want = ref.lax_compose_delta1(n, m)
        assert got.entries == want.entries
        for cell in ("cell_f0", "cell_0f", "cell_f1", "cell_1f"):
            assert getattr(got, cell) == getattr(want, cell)


def test_the_golden_composition_builds_each_key_once(monkeypatch, capsysbinary):
    counts = Counts(monkeypatch)
    code = run(["lax-compose", str(GOLDEN / "inputs" / "lax_left.json"),
                str(GOLDEN / "inputs" / "lax_right.json")])
    assert code == 0
    assert capsysbinary.readouterr().out == (GOLDEN / "expected" / "lax_compose.out").read_bytes()
    for kind in ("assoc", "interchange", "blocks"):
        assert 0 < counts.built[kind] == counts.distinct(kind)


def frozen(x):
    """x with every dict and list turned into a tuple, so that a later
    change to any of them shows as inequality."""
    if isinstance(x, dict):
        return tuple((k, frozen(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(frozen(v) for v in x)
    return x


def test_a_composition_changes_nothing_the_memo_holds():
    n, m = augmented_pair(4)
    memo = TensorMemo()
    first = lax_compose_delta1(n, m, memo)
    stores = (memo._tables, memo._maps, memo._blocks)
    held = [{k: frozen(v) for k, v in store.items()} for store in stores]
    # a second composition reads every table and index map of the first
    again = lax_compose_delta1(n, m, memo)
    assert [{k: frozen(store[k]) for k in before} for store, before in zip(stores, held)] == held
    for pretty in (False, True):
        assert serialize_document(again, pretty) == serialize_document(first, pretty)
