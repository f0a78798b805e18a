"""Byte-agreement regression tests for the shared canonical encoder.

The golden fixtures (``tools/regen_goldens.py``), the sweep archives
(:mod:`repro.dist.archive`) and the fuzz corpus (:mod:`repro.fuzz.corpus`)
each used to carry a private copy of the same canonical-JSON encoder; the
sweep service's cache keys made a fourth consumer, so the encoder was
extracted into :mod:`repro.canonical`.  These tests pin that every call
site *is* (and therefore byte-agrees with) the shared implementation, and
that the extraction changed no committed artifact's bytes.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest
import regen_goldens

from repro import canonical
from repro.dist import archive as dist_archive
from repro.fuzz import corpus as fuzz_corpus

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: a payload exercising every canonicalisation rule at once: unsorted
#: keys, nested tuples, non-finite floats, precise doubles, unicode
TRICKY = {
    "z_last": (1, 2, (3.0, math.nan)),
    "a_first": {"inf": math.inf, "ninf": -math.inf},
    "precise": 0.1 + 0.2,
    "text": "naïve ≤ résumé",
    "ints": [0, -1, 10**18],
}


class TestCallSitesAgree:
    def test_regen_tool_reexports_the_shared_encoder(self):
        assert regen_goldens.canonical_json is canonical.canonical_json
        assert regen_goldens.sanitize is canonical.sanitize

    def test_archive_writer_uses_the_shared_sanitizer(self):
        assert dist_archive._sanitize is canonical.sanitize

    def test_fuzz_corpus_uses_the_shared_encoder(self):
        assert fuzz_corpus.canonical_json is canonical.canonical_json
        assert fuzz_corpus._sanitize is canonical.sanitize
        assert fuzz_corpus._restore is canonical.restore

    def test_three_call_sites_agree_byte_for_byte(self):
        # identity of the functions is the strong form; this is the
        # contract itself, stated as the ISSUE asks: same payload in,
        # identical bytes out of every consumer's entry point
        via_regen = regen_goldens.canonical_json(TRICKY)
        via_corpus = fuzz_corpus.canonical_json(TRICKY)
        via_shared = canonical.canonical_json(TRICKY)
        assert via_regen == via_corpus == via_shared


class TestCanonicalForm:
    def test_deterministic_and_key_sorted(self):
        text = canonical.canonical_json(TRICKY)
        assert text == canonical.canonical_json(dict(reversed(TRICKY.items())))
        assert text.index('"a_first"') < text.index('"z_last"')
        assert " " not in text.split('"text"')[0]  # compact separators

    def test_non_finite_floats_round_trip(self):
        text = canonical.canonical_json(TRICKY)
        back = canonical.restore(json.loads(text))
        assert math.isnan(back["z_last"][2][1])
        assert back["a_first"]["inf"] == math.inf
        assert back["a_first"]["ninf"] == -math.inf
        assert back["precise"] == 0.1 + 0.2  # exact, not approximate

    def test_strictly_valid_json(self):
        # allow_nan=False means a non-finite float that escaped sanitize
        # would raise instead of emitting invalid JSON
        assert json.loads(canonical.canonical_json(TRICKY))

    def test_digest_is_blake2b_256_of_the_canonical_bytes(self):
        expected = hashlib.blake2b(
            canonical.canonical_json(TRICKY).encode("utf-8"),
            digest_size=32).hexdigest()
        assert canonical.canonical_digest(TRICKY) == expected
        assert len(expected) == 64


class TestCommittedArtifactsUnchanged:
    """The extraction must not have moved a single committed byte."""

    @pytest.mark.parametrize("fixture", sorted(
        (REPO_ROOT / "tests" / "golden").glob("*.json")),
        ids=lambda path: path.name)
    def test_golden_fixture_is_in_shared_canonical_form(self, fixture):
        text = fixture.read_text(encoding="utf-8")
        assert canonical.canonical_json(json.loads(text)) + "\n" == text

    @pytest.mark.parametrize("document", sorted(
        (REPO_ROOT / "tests" / "fuzz_corpus").glob("*.json")),
        ids=lambda path: path.name)
    def test_corpus_document_is_in_shared_canonical_form(self, document):
        text = document.read_text(encoding="utf-8")
        assert canonical.canonical_json(json.loads(text)) + "\n" == text
