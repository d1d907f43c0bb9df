import json

import numpy as np
import pytest

from maskterm import corpus
from maskterm.corpus import AspectAnnotation
from maskterm.exceptions import (
    AlignmentError,
    ContractError,
    CorpusParseError,
    EmptyInputError,
    SchemaError,
)

from fixtures import (
    MALFORMED_FIXTURE,
    MISSING_ATTR_FIXTURE,
    SEM14_CONFLICT_FIXTURE,
    SEM14_FIXTURE,
    SEM14_NO_ASPECTS_FIXTURE,
    SEM16_FIXTURE,
)


class TestTokenize:
    def test_basic_sentence(self):
        tokens, spans = corpus.tokenize("the steak was great.")
        assert tokens == ["the", "steak", "was", "great", "."]
        assert spans == [(0, 3), (4, 9), (10, 13), (14, 19), (19, 20)]

    def test_single_token(self):
        assert corpus.tokenize("hi") == (["hi"], [(0, 2)])

    def test_hyphen_split(self):
        tokens, _ = corpus.tokenize("touch-screen")
        assert tokens == ["touch", "-", "screen"]

    def test_edge_punctuation(self):
        tokens, _ = corpus.tokenize("(good), ok!")
        assert tokens == ["(", "good", ")", ",", "ok", "!"]

    def test_lowercases_but_spans_reference_original(self):
        text = "The Steak"
        tokens, spans = corpus.tokenize(text)
        assert tokens == ["the", "steak"]
        for tok, (lo, hi) in zip(tokens, spans):
            assert text[lo:hi].lower() == tok

    def test_whitespace_only_rejected(self):
        with pytest.raises(EmptyInputError):
            corpus.tokenize("   \t ")

    def test_spans_sorted_disjoint_and_reconstruct(self):
        rng = np.random.default_rng(0)
        words = ["Great", "food-court", "...", "really!", "a", "B-52", "(nice)"]
        for _ in range(25):
            text = " ".join(rng.choice(words, size=rng.integers(1, 8)))
            tokens, spans = corpus.tokenize(text)
            for (l0, h0), (l1, h1) in zip(spans, spans[1:]):
                assert h0 <= l1
            for tok, (lo, hi) in zip(tokens, spans):
                assert text[lo:hi].lower() == tok


class TestBio:
    def test_single_aspect(self):
        _, spans = corpus.tokenize("the steak was great")
        tags = corpus.char_span_to_bio(spans, [AspectAnnotation("steak", 4, 9, "positive")])
        assert tags == ["O", "B", "O", "O"]

    def test_no_aspects(self):
        _, spans = corpus.tokenize("the steak was great")
        assert corpus.char_span_to_bio(spans, []) == ["O"] * 4

    def test_multiword_span(self):
        text = "setting the clock in BIOS setup directly"
        _, spans = corpus.tokenize(text)
        start = text.index("clock")
        end = text.index("setup") + len("setup")
        tags = corpus.char_span_to_bio(spans, [AspectAnnotation("clock in BIOS setup", start, end, "negative")])
        assert tags == ["O", "O", "B", "I", "I", "I", "O"]

    def test_unaligned_aspect_raises(self):
        _, spans = corpus.tokenize("short text")
        with pytest.raises(AlignmentError, match="ghost"):
            corpus.char_span_to_bio(spans, [AspectAnnotation("ghost", 50, 55, "neutral")])

    def test_overlap_resolved_for_earlier(self):
        text = "the wine list price"
        _, spans = corpus.tokenize(text)
        tags = corpus.char_span_to_bio(spans, [
            AspectAnnotation("wine list", 4, 13, "positive"),
            AspectAnnotation("list price", 9, 19, "negative"),
        ])
        assert tags == ["O", "B", "I", "B"]

    def test_every_b_starts_exactly_one_aspect(self):
        for ex in corpus.synth_corpus(seed=13, size=60):
            assert ex.bio_tags.count("B") == len(ex.aspects)
            for asp in ex.aspects:
                s, e = asp.token_span
                assert ex.bio_tags[s] == "B"
                assert all(t == "I" for t in ex.bio_tags[s + 1:e + 1])


class TestPosTag:
    def test_closed_class(self):
        assert corpus.pos_tag_word("the") == "DET"

    def test_suffix_rule(self):
        assert corpus.pos_tag_word("quickly") == "ADV"

    def test_default_noun(self):
        assert corpus.pos_tag_word("blorptastic") == "NOUN"

    def test_total_function(self):
        for word in ["", "...", "12.5", "x86", "don't", "WHY"]:
            tag = corpus.pos_tag_word(word.lower())
            assert tag in corpus.POS_TAGS


class TestParseSemeval:
    def test_sem14_fixture(self):
        entries, summary = corpus.parse_semeval_xml(SEM14_FIXTURE, "sem14")
        assert len(entries) == 2
        assert summary.review_count == 2
        assert summary.aspect_counts == {"positive": 2, "negative": 1, "neutral": 0}
        assert summary.skipped == 0

    def test_sentence_without_aspects(self):
        entries, _ = corpus.parse_semeval_xml(SEM14_NO_ASPECTS_FIXTURE, "sem14")
        assert len(entries) == 1 and entries[0][1] == []

    def test_conflict_polarity_dropped_and_counted(self):
        entries, summary = corpus.parse_semeval_xml(SEM14_CONFLICT_FIXTURE, "sem14")
        assert entries[0][1] == []
        assert summary.skipped == 1
        assert sum(summary.aspect_counts.values()) == 0

    def test_sem16_fixture(self):
        entries, summary = corpus.parse_semeval_xml(SEM16_FIXTURE, "sem16")
        assert len(entries) == 3
        assert summary.review_count == 2
        assert summary.aspect_counts == {"positive": 1, "negative": 1, "neutral": 1}

    def test_malformed_xml_reports_position(self):
        with pytest.raises(CorpusParseError, match="line"):
            corpus.parse_semeval_xml(MALFORMED_FIXTURE, "sem14")

    @pytest.mark.parametrize("encoding", ["TTF-8", "UTF-7", "rot13", "idna"])
    def test_unusable_encoding_declaration(self, encoding):
        """Unknown and multi-byte encodings raise LookupError or ValueError in the parser."""
        data = SEM14_FIXTURE.replace('encoding="UTF-8"', f'encoding="{encoding}"', 1)
        assert data != SEM14_FIXTURE
        with pytest.raises(CorpusParseError, match="encoding declaration.*line 1"):
            corpus.parse_semeval_xml(data.encode(), "sem14")

    def test_missing_attribute_names_element(self):
        with pytest.raises(SchemaError, match="aspectTerm"):
            corpus.parse_semeval_xml(MISSING_ATTR_FIXTURE, "sem14")

    @pytest.mark.parametrize("element,text", [("<text></text>", ""), ("<text/>", ""),
                                              ("<text> </text>", " ")])
    def test_empty_text_reads_as_blank(self, element, text):
        """An empty <text> is present: it reads as "", as whitespace reads as
        itself, and ingest skips both; it once raised the missing-child error."""
        data = f"<sentences><sentence id='1'>{element}</sentence></sentences>"
        entries, summary = corpus.parse_semeval_xml(data, "sem14")
        assert entries == [(text, [])] and summary.review_count == 1

    def test_missing_text_names_the_child(self):
        with pytest.raises(SchemaError, match="missing required child <text>"):
            corpus.parse_semeval_xml("<sentences><sentence id='1'/></sentences>", "sem14")

    def test_aspect_slices_match_terms(self):
        for fixture, schema in ((SEM14_FIXTURE, "sem14"), (SEM16_FIXTURE, "sem16")):
            entries, _ = corpus.parse_semeval_xml(fixture, schema)
            for text, aspects in entries:
                for asp in aspects:
                    assert text[asp.char_from:asp.char_to] == asp.term

    def test_parsing_is_pure(self):
        first = corpus.parse_semeval_xml(SEM14_FIXTURE, "sem14")
        second = corpus.parse_semeval_xml(SEM14_FIXTURE, "sem14")
        assert first[0] == second[0] and first[1] == second[1]


class TestSynthCorpus:
    def test_deterministic_in_seed(self):
        a = corpus.synth_corpus(seed=7, size=40)
        b = corpus.synth_corpus(seed=7, size=40)
        assert [json.dumps(corpus.example_to_record(x)) for x in a] == \
               [json.dumps(corpus.example_to_record(x)) for x in b]

    def test_size_validation(self):
        with pytest.raises(ContractError):
            corpus.synth_corpus(seed=1, size=0)

    def test_examples_validate_and_align(self):
        for ex in corpus.synth_corpus(seed=3, size=100):
            ex.validate()
            for asp in ex.aspects:
                assert ex.text[asp.char_from:asp.char_to] == asp.term

    def test_two_aspect_fraction(self):
        examples = corpus.synth_corpus(seed=5, size=1000)
        two = sum(1 for ex in examples if len(ex.aspects) == 2)
        assert 0.30 <= two / len(examples) <= 1.0
        for ex in examples:
            if len(ex.aspects) == 2:
                assert ex.aspects[0].polarity != ex.aspects[1].polarity

    def test_ldjson_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        examples = corpus.synth_corpus(seed=2, size=25)
        corpus.write_examples(str(path), examples)
        loaded = corpus.read_examples(str(path))
        assert len(loaded) == len(examples)
        for orig, back in zip(examples, loaded):
            assert back.tokens == orig.tokens
            assert back.char_spans == orig.char_spans
            assert back.pos_ids == orig.pos_ids
            assert back.bio_tags == orig.bio_tags
            assert [a.token_span for a in back.aspects] == [a.token_span for a in orig.aspects]

    def test_record_keys_are_stable(self):
        rec = corpus.example_to_record(corpus.synth_corpus(seed=1, size=1)[0])
        assert list(rec) == ["tokens", "spans", "pos", "bio", "aspects", "text"]

    def test_file_with_dependency_rows_still_loads(self, tmp_path):
        """Files written before the dependency columns were dropped carry a
        `dep` key of zero rows after `pos` (built here byte for byte as that
        writer wrote it); the key is ignored."""
        examples = corpus.synth_corpus(seed=2, size=5)
        path = tmp_path / "old.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for ex in examples:
                rec = corpus.example_to_record(ex)
                old = {key: rec[key] for key in ("tokens", "spans", "pos")}
                old["dep"] = [[0.0] * 24 for _ in ex.tokens]
                old.update(rec)
                fh.write(json.dumps(old, ensure_ascii=False) + "\n")
        loaded = corpus.read_examples(str(path))
        assert [(ex.tokens, ex.char_spans, ex.pos_ids, ex.bio_tags, ex.aspects, ex.text)
                for ex in loaded] == [(ex.tokens, ex.char_spans, ex.pos_ids, ex.bio_tags,
                                       ex.aspects, ex.text) for ex in examples]


class TestReadExamples:
    @staticmethod
    def write_lines(tmp_path, lines):
        path = tmp_path / "examples.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return str(path)

    @staticmethod
    def record(**changes):
        rec = corpus.example_to_record(corpus.synth_corpus(seed=4, size=1)[0])
        rec.update(changes)
        return rec

    def test_truncated_line_names_its_line(self, tmp_path):
        good = json.dumps(self.record())
        path = self.write_lines(tmp_path, [good, "", good[: len(good) // 2]])
        with pytest.raises(CorpusParseError, match=r"invalid JSON.*line 3, column") as exc:
            corpus.read_examples(path)
        assert exc.value.line == 3

    def test_missing_key(self, tmp_path):
        rec = self.record()
        del rec["aspects"]
        path = self.write_lines(tmp_path, [json.dumps(rec)])
        with pytest.raises(CorpusParseError, match=r"lacks key 'aspects' \(line 1\)"):
            corpus.read_examples(path)

    # A three-token record that loads; strings of three characters in place
    # of its lists, a dict in place of its aspects, a span of two strings and
    # a number for its text once loaded too.
    THREE = {"tokens": ["a", "b", "c"], "spans": [[0, 1], [2, 3], [4, 5]], "pos": [0, 0, 0],
             "bio": ["B", "I", "O"], "aspects": [], "text": "a b c"}

    @pytest.mark.parametrize("changes", [
        {"tokens": 5}, {"pos": "x"}, {"spans": [1, 2]}, {"bio": None}, {"aspects": [7]},
        dict(THREE, tokens="abc"), dict(THREE, bio="BIO"), dict(THREE, spans="abc"),
        dict(THREE, aspects={}), dict(THREE, spans=[[0, 1], ["x", "y"], [4, 5]]),
        dict(THREE, spans=[[0, 1], [2, 3], [4, 5, 6]]), dict(THREE, spans=[[0, 1], [2, 3], [True, 5]]),
        dict(THREE, text=5),
    ])
    def test_wrong_type(self, tmp_path, changes):
        path = self.write_lines(tmp_path, [json.dumps(self.record(**changes))])
        with pytest.raises(CorpusParseError) as exc:
            corpus.read_examples(path)
        assert exc.value.line == 1

    def test_the_three_token_record_loads(self, tmp_path):
        path = self.write_lines(tmp_path, [json.dumps(self.THREE)])
        assert corpus.read_examples(path)[0].char_spans == [(0, 1), (2, 3), (4, 5)]

    def test_record_must_be_an_object(self, tmp_path):
        path = self.write_lines(tmp_path, ["[1, 2]"])
        with pytest.raises(CorpusParseError, match="JSON object"):
            corpus.read_examples(path)

    def test_every_record_is_validated(self, tmp_path):
        """Two tokens with one BIO tag would otherwise load, and evaluation
        would score only the first token."""
        ex = corpus.make_example("great steak", [])
        short = dict(corpus.example_to_record(ex), bio=["O"])
        out_of_range = dict(corpus.example_to_record(ex), pos=[0, len(corpus.POS_TAGS)])
        named = dict(corpus.example_to_record(ex), pos=["ADJ", "NOUN"])
        for bad in (short, out_of_range, named):
            path = self.write_lines(tmp_path, [json.dumps(corpus.example_to_record(ex)),
                                               json.dumps(bad)])
            with pytest.raises(CorpusParseError) as exc:
                corpus.read_examples(path)
            assert exc.value.line == 2

    @pytest.mark.parametrize("tokens", [[1, 1], ["great", ""], ["great", None], [["steak"], "x"]],
                             ids=["ints", "empty", "null", "list"])
    def test_tokens_must_be_non_empty_strings(self, tmp_path, tokens):
        rec = corpus.example_to_record(corpus.make_example("great steak", []))
        path = self.write_lines(tmp_path, [json.dumps(rec), json.dumps(dict(rec, tokens=tokens))])
        with pytest.raises(CorpusParseError, match="tokens must be non-empty strings") as exc:
            corpus.read_examples(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("span", [[1.5, 1.5], [0, 1.0], ["0", "1"]])
    def test_token_span_ends_must_be_integers(self, tmp_path, span):
        """ASC slices the sentence by these ends, which fails on any but ints."""
        rec = self.record()
        rec["aspects"][0]["token_span"] = span
        path = self.write_lines(tmp_path, [json.dumps(self.record()), json.dumps(rec)])
        with pytest.raises(CorpusParseError, match="pair of integers") as exc:
            corpus.read_examples(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("field,value", [("pos", [True, 7, 7, 4, 6, 5, 9]),
                                             ("pos", [0, 7, 7, 4, 6, 5, False]),
                                             ("token_span", [True, 2]),
                                             ("token_span", [1, True])],
                             ids=["pos-true", "pos-false", "span-start", "span-end"])
    def test_json_booleans_are_not_ids(self, tmp_path, field, value):
        """Python reads true as 1 and false as 0; each of these would load as
        a valid id or span."""
        rec = corpus.example_to_record(corpus.synth_corpus(1, 1)[0])
        bad = json.loads(json.dumps(rec))
        if field == "pos":
            bad["pos"] = value
        else:
            bad["aspects"][0]["token_span"] = value
        path = self.write_lines(tmp_path, [json.dumps(rec), json.dumps(bad)])
        with pytest.raises(CorpusParseError) as exc:
            corpus.read_examples(path)
        assert exc.value.line == 2

    def test_unknown_polarity_rejected(self, tmp_path):
        rec = self.record()
        rec["aspects"][0]["polarity"] = "conflict"
        with pytest.raises(CorpusParseError, match="unknown polarity"):
            corpus.read_examples(self.write_lines(tmp_path, [json.dumps(rec)]))

    def test_line_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "examples.jsonl"
        path.write_bytes(json.dumps(self.record()).encode() + b"\n\xff\xfe\n")
        with pytest.raises(CorpusParseError, match="not UTF-8") as exc:
            corpus.read_examples(str(path))
        assert exc.value.line == 2

    def test_text_round_trips(self, tmp_path):
        examples = corpus.synth_corpus(seed=2, size=5)
        path = str(tmp_path / "corpus.jsonl")
        corpus.write_examples(path, examples)
        assert [ex.text for ex in corpus.read_examples(path)] == [ex.text for ex in examples]
        assert all(ex.text for ex in examples)

    def test_record_without_text_loads_with_empty_text(self, tmp_path):
        rec = self.record()
        del rec["text"]
        assert corpus.read_examples(self.write_lines(tmp_path, [json.dumps(rec)]))[0].text == ""
