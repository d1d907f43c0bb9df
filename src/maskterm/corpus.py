"""Review ingestion: XML parsing, tokenization, BIO tagging, POS tagging.

Everything here is pure: the same bytes always produce the same examples.
"""

from __future__ import annotations

import json
import re
import string
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    AlignmentError,
    ContractError,
    CorpusParseError,
    EmptyInputError,
    SchemaError,
)

POLARITIES = ("positive", "negative", "neutral")
SCHEMAS = ("sem14", "sem16")   # review XML layouts parse_semeval_xml reads

POS_TAGS = ("DET", "ADP", "CONJ", "PRON", "VERB", "ADJ", "ADV", "NOUN", "NUM", "PUNCT", "OTHER")
POS_INDEX = {t: i for i, t in enumerate(POS_TAGS)}


@dataclass
class AspectAnnotation:
    """One aspect term with character offsets into its sentence."""

    term: str
    char_from: int
    char_to: int
    polarity: str
    token_span: tuple[int, int] | None = None  # inclusive token indices once projected


@dataclass
class TokenizedExample:
    """A tokenized, BIO-tagged, POS-tagged review sentence."""

    tokens: list[str]
    char_spans: list[tuple[int, int]]
    pos_ids: list[int]
    bio_tags: list[str]
    aspects: list[AspectAnnotation] = field(default_factory=list)
    text: str = ""

    def __len__(self) -> int:
        return len(self.tokens)

    def validate(self) -> None:
        n = len(self.tokens)
        if n < 1:
            raise ContractError("example must contain at least one token")
        if not len(self.char_spans) == len(self.pos_ids) == len(self.bio_tags) == n:
            raise ContractError("per-token sequences disagree in length")
        if not all(isinstance(t, str) and t for t in self.tokens):
            raise ContractError("tokens must be non-empty strings")
        if not all(type(p) is int and 0 <= p < len(POS_TAGS) for p in self.pos_ids):
            raise ContractError("POS id outside the tag set")
        prev = "O"
        for tag in self.bio_tags:
            if tag not in ("B", "I", "O"):
                raise ContractError(f"invalid BIO tag {tag!r}")
            if tag == "I" and prev == "O":
                raise ContractError("I tag follows O: invalid BIO sequence")
            prev = tag
        for asp in self.aspects:
            if not (isinstance(asp.term, str) and asp.term):
                raise ContractError(f"aspect term {asp.term!r} is not a non-empty string")
            # type(), not isinstance: a JSON true is a bool, which is an int
            if not (type(asp.char_from) is int and type(asp.char_to) is int
                    and 0 <= asp.char_from < asp.char_to):
                raise ContractError(f"aspect {asp.term!r} offsets from {asp.char_from!r} "
                                    f"to {asp.char_to!r} are not integers 0 <= from < to")
            if self.text and asp.char_to > len(self.text):
                raise ContractError(f"aspect {asp.term!r} ends at {asp.char_to}, past its "
                                    f"sentence of {len(self.text)} characters")
            if asp.token_span is None:
                raise ContractError(f"aspect {asp.term!r} lacks a token-span projection")
            if asp.polarity not in POLARITIES:
                raise ContractError(f"aspect {asp.term!r} has unknown polarity {asp.polarity!r}")
            s, e = asp.token_span
            if not (type(s) is int and type(e) is int):
                raise ContractError(f"aspect {asp.term!r} token span {asp.token_span!r} "
                                    "is not a pair of integers")
            if not (0 <= s <= e < n):
                raise ContractError(f"aspect {asp.term!r} projects outside the sentence")


@dataclass
class DatasetSummary:
    """Counts printed after ingestion; mirrors the reviews/aspect-polarity table."""

    review_count: int = 0
    aspect_counts: dict[str, int] = field(default_factory=lambda: {p: 0 for p in POLARITIES})
    skipped: int = 0


# -- tokenization ------------------------------------------------------------

_PUNCT = set(string.punctuation)
_NUM_RE = re.compile(r"^\d+([.,/]\d+)*%?$")


def tokenize(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Whitespace split, then detach edge punctuation and split words on hyphens.

    Tokens come back lowercased for vocabulary lookup; spans index the
    original text, so surfaces can always be recovered.
    """
    if not text.strip():
        raise EmptyInputError("cannot tokenize whitespace-only text")
    tokens: list[str] = []
    spans: list[tuple[int, int]] = []

    def emit(start: int, end: int) -> None:
        tokens.append(text[start:end].lower())
        spans.append((start, end))

    for m in re.finditer(r"\S+", text):
        lo, hi = m.start(), m.end()
        while lo < hi and text[lo] in _PUNCT and text[lo] != "-":
            emit(lo, lo + 1)
            lo += 1
        trailing: list[tuple[int, int]] = []
        while hi > lo and text[hi - 1] in _PUNCT and text[hi - 1] != "-":
            trailing.append((hi - 1, hi))
            hi -= 1
        # split the remaining core on hyphens, keeping them as tokens
        pos = lo
        while pos < hi:
            nxt = text.find("-", pos, hi)
            if nxt == -1:
                emit(pos, hi)
                break
            if nxt > pos:
                emit(pos, nxt)
            emit(nxt, nxt + 1)
            pos = nxt + 1
        for s, e in reversed(trailing):
            emit(s, e)
    return tokens, spans


# -- BIO projection -----------------------------------------------------------


def project_aspect(spans: list[tuple[int, int]], aspect: AspectAnnotation) -> tuple[int, int]:
    """Inclusive token-index span of the tokens overlapping the aspect's characters."""
    hit = [i for i, (lo, hi) in enumerate(spans)
           if lo < aspect.char_to and hi > aspect.char_from]
    if not hit:
        raise AlignmentError(
            f"aspect {aspect.term!r} at [{aspect.char_from},{aspect.char_to}) overlaps no token"
        )
    return hit[0], hit[-1]


def char_span_to_bio(spans: list[tuple[int, int]], aspects: list[AspectAnnotation]) -> list[str]:
    """Project aspect character spans onto tokens as B/I/O tags.

    Earlier-starting aspects win overlaps; an aspect whose tokens were all
    claimed already is dropped from the tagging.
    """
    tags = ["O"] * len(spans)
    for asp in sorted(aspects, key=lambda a: (a.char_from, a.char_to)):
        first, last = project_aspect(spans, asp)
        start = first
        while start <= last and tags[start] != "O":
            start += 1
        if start > last:
            continue
        tags[start] = "B"
        for i in range(start + 1, last + 1):
            if tags[i] != "O":
                break
            tags[i] = "I"
    return tags


# -- part-of-speech tagging -----------------------------------------------------

_LEXICON = {
    "DET": {"the", "a", "an", "this", "that", "these", "those", "every", "each",
            "some", "any", "no", "all", "both", "its", "their", "my", "your", "our", "his", "her"},
    "ADP": {"in", "on", "at", "of", "to", "for", "with", "from", "by", "about",
            "into", "over", "under", "after", "before", "between", "during", "without"},
    "CONJ": {"and", "but", "or", "nor", "so", "yet", "because", "although", "while", "if"},
    "PRON": {"i", "you", "he", "she", "it", "we", "they", "me", "him", "them",
             "us", "who", "what", "which", "myself", "itself"},
    "VERB": {"is", "was", "are", "were", "be", "been", "being", "am", "do", "does",
             "did", "have", "has", "had", "will", "would", "can", "could", "should",
             "may", "might", "must", "get", "got", "go", "went", "gave", "give",
             "ordered", "came", "come", "sat", "tried", "enjoyed", "like", "liked", "love", "loved"},
    "ADV": {"not", "very", "too", "quite", "really", "never", "always", "often",
            "here", "there", "just", "still", "also", "again", "incredibly"},
    "ADJ": {"good", "bad", "great", "nice", "new", "old", "hot", "cold", "fresh",
            "slow", "fast", "cheap", "friendly", "rude", "tasty", "bland", "okay",
            "average", "tender", "excellent", "fantastic", "terrible", "awful",
            "wonderful", "disappointing", "ordinary", "acceptable", "delicious", "stale", "noisy", "cozy"},
}

_SUFFIX_RULES = (
    ("ly", "ADV"),
    ("ing", "VERB"), ("ed", "VERB"), ("ize", "VERB"), ("ise", "VERB"), ("ify", "VERB"),
    ("ous", "ADJ"), ("ful", "ADJ"), ("able", "ADJ"), ("ible", "ADJ"), ("ive", "ADJ"),
    ("less", "ADJ"), ("ish", "ADJ"),
    ("ness", "NOUN"), ("ment", "NOUN"), ("tion", "NOUN"), ("sion", "NOUN"),
    ("ity", "NOUN"), ("ance", "NOUN"), ("ence", "NOUN"), ("ship", "NOUN"), ("hood", "NOUN"),
)


def pos_tag_word(token: str) -> str:
    """Coarse tag for one lowercased token; unknown words default to NOUN."""
    if all(c in _PUNCT for c in token):
        return "PUNCT"
    if _NUM_RE.match(token):
        return "NUM"
    for tag, words in _LEXICON.items():
        if token in words:
            return tag
    if not token.isalpha():
        return "OTHER"
    for suffix, tag in _SUFFIX_RULES:
        if len(token) > len(suffix) + 1 and token.endswith(suffix):
            return tag
    return "NOUN"


def pos_tag(tokens: list[str]) -> list[int]:
    if not tokens:
        raise EmptyInputError("cannot tag an empty token sequence")
    return [POS_INDEX[pos_tag_word(t)] for t in tokens]


# -- SemEval XML -------------------------------------------------------------------


def _require_attr(el: ET.Element, name: str) -> str:
    value = el.get(name)
    if value is None:
        raise SchemaError(f"element <{el.tag}> is missing required attribute {name!r}")
    return value


def _aspect_from_element(el: ET.Element, term_attr: str, text: str,
                         summary: DatasetSummary) -> AspectAnnotation | None:
    term = _require_attr(el, term_attr)
    polarity = _require_attr(el, "polarity")
    if term == "NULL" or not term.strip():
        return None
    if polarity not in POLARITIES:
        summary.skipped += 1
        return None
    try:
        char_from, char_to = int(_require_attr(el, "from")), int(_require_attr(el, "to"))
    except ValueError as exc:
        raise SchemaError(f"aspect {term!r} has a non-integer offset") from exc
    if not (0 <= char_from < char_to <= len(text)):
        raise SchemaError(
            f"aspect {term!r} has offsets [{char_from},{char_to}) outside its sentence"
        )
    sliced = " ".join(text[char_from:char_to].split())
    if sliced.lower() != " ".join(term.split()).lower():
        raise AlignmentError(
            f"aspect {term!r} does not match its sentence slice {text[char_from:char_to]!r}"
        )
    summary.aspect_counts[polarity] += 1
    return AspectAnnotation(term, char_from, char_to, polarity)


def parse_semeval_xml(data: bytes | str, schema: str):
    """Parse review XML into (sentence text, aspect annotations) entries.

    `schema` is "sem14" (aspectTerm elements) or "sem16" (Opinion targets,
    also used for the 2015 layout). Annotations with a polarity outside
    positive/negative/neutral are dropped and counted in the summary's
    `skipped` tally; NULL or empty targets are dropped silently.
    """
    if schema not in SCHEMAS:
        raise ContractError(f"unknown schema {schema!r}; expected sem14 or sem16")
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, column = exc.position
        raise CorpusParseError(f"malformed XML: {exc.msg.split(':')[0]}", line=line, column=column) from exc
    except (LookupError, ValueError) as exc:   # an encoding the XML parser cannot use
        raise CorpusParseError(f"unusable XML encoding declaration: {exc}", line=1) from exc

    entries: list[tuple[str, list[AspectAnnotation]]] = []
    summary = DatasetSummary()

    def handle_sentence(sent: ET.Element, container: str, element: str, term_attr: str) -> None:
        text_el = sent.find("text")
        if text_el is None:
            raise SchemaError("element <sentence> is missing required child <text>")
        text = text_el.text or ""   # an empty <text/> reads as blank text
        aspects: list[AspectAnnotation] = []
        block = sent.find(container)
        if block is not None:
            for el in block.findall(element):
                asp = _aspect_from_element(el, term_attr, text, summary)
                if asp is not None:
                    aspects.append(asp)
        entries.append((text, aspects))

    if schema == "sem14":
        if root.tag != "sentences":
            raise SchemaError(f"expected <sentences> root, found <{root.tag}>")
        for sent in root.findall("sentence"):
            handle_sentence(sent, "aspectTerms", "aspectTerm", "term")
            summary.review_count += 1
    else:
        if root.tag != "Reviews":
            raise SchemaError(f"expected <Reviews> root, found <{root.tag}>")
        for review in root.findall("Review"):
            summary.review_count += 1
            for sent in review.iter("sentence"):
                handle_sentence(sent, "Opinions", "Opinion", "target")
    return entries, summary


# -- example assembly ---------------------------------------------------------------


def make_example(text: str, aspects: list[AspectAnnotation]) -> TokenizedExample:
    """Tokenize a sentence and project its annotations into a TokenizedExample."""
    tokens, spans = tokenize(text)
    projected = []
    for asp in aspects:
        span = project_aspect(spans, asp)
        projected.append(AspectAnnotation(asp.term, asp.char_from, asp.char_to, asp.polarity, span))
    ex = TokenizedExample(
        tokens=tokens,
        char_spans=spans,
        pos_ids=pos_tag(tokens),
        bio_tags=char_span_to_bio(spans, aspects),
        aspects=projected,
        text=text,
    )
    ex.validate()
    return ex


# -- synthetic corpus ----------------------------------------------------------------

ASPECT_NOUNS = (
    "steak", "service", "pasta", "waiter", "keyboard", "dessert",
    "battery life", "wine list", "screen resolution", "boot time",
    "side dishes", "customer support",
)

SENTIMENT_ADJECTIVES = {
    "positive": ("great", "excellent", "fantastic", "tasty", "friendly", "wonderful"),
    "negative": ("terrible", "awful", "slow", "rude", "bland", "disappointing"),
    "neutral": ("okay", "average", "ordinary", "acceptable"),
}

_INTENSIFIERS = ("really", "quite", "very", "incredibly")
_TWO_ASPECT_RATE = 0.5
_INTENSIFIER_RATE = 0.3


def _pick(rng: np.random.Generator, options):
    return options[int(rng.integers(len(options)))]


def synth_corpus(seed: int, size: int) -> list[TokenizedExample]:
    """Deterministic template corpus with planted aspects and polarities.

    At least 30% of sentences carry two aspects with differing polarities,
    which is the regime adaptive masking is meant to help with.
    """
    if size < 1:
        raise ContractError(f"corpus size must be >= 1, got {size}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(size):
        two = rng.random() < _TWO_ASPECT_RATE
        if two:
            noun_a = _pick(rng, ASPECT_NOUNS)
            noun_b = _pick(rng, tuple(n for n in ASPECT_NOUNS if n != noun_a))
            pol_a = _pick(rng, POLARITIES)
            pol_b = _pick(rng, tuple(p for p in POLARITIES if p != pol_a))
            clauses = [(noun_a, pol_a), (noun_b, pol_b)]
        else:
            clauses = [(_pick(rng, ASPECT_NOUNS), _pick(rng, POLARITIES))]

        parts: list[str] = []
        cursor = 0
        aspects: list[AspectAnnotation] = []

        def append(fragment: str) -> int:
            nonlocal cursor
            start = cursor
            parts.append(fragment)
            cursor += len(fragment)
            return start

        for idx, (noun, pol) in enumerate(clauses):
            if idx > 0:
                append(" but ")
            append("the ")
            start = append(noun)
            aspects.append(AspectAnnotation(noun, start, start + len(noun), pol))
            append(" was ")
            if rng.random() < _INTENSIFIER_RATE:
                append(_pick(rng, _INTENSIFIERS) + " ")
            append(_pick(rng, SENTIMENT_ADJECTIVES[pol]))
        append(".")
        examples.append(make_example("".join(parts), aspects))
    return examples


# -- line-delimited JSON ----------------------------------------------------------------


def example_to_record(ex: TokenizedExample) -> dict:
    return {
        "tokens": ex.tokens,
        "spans": [list(s) for s in ex.char_spans],
        "pos": ex.pos_ids,
        "bio": ex.bio_tags,
        "aspects": [
            {
                "term": a.term,
                "from": a.char_from,
                "to": a.char_to,
                "polarity": a.polarity,
                "token_span": list(a.token_span) if a.token_span else None,
            }
            for a in ex.aspects
        ],
        "text": ex.text,
    }


def record_to_example(rec: dict) -> TokenizedExample:
    if not isinstance(rec, dict):
        raise TypeError(f"example record must be a JSON object, not {type(rec).__name__}")
    aspects, tokens, spans = rec["aspects"], rec["tokens"], rec["spans"]
    pos, bio, text = rec["pos"], rec["bio"], rec.get("text", "")
    if not (type(aspects) is type(tokens) is type(spans) is type(pos) is type(bio) is list
            and type(text) is str):   # a string in place of a list would read as its characters
        raise TypeError("aspects, tokens, spans, pos and bio must be lists, and text a string")
    if {(type(a), type(b)) for a, b in spans} - {(int, int)}:
        raise TypeError("spans must be pairs of integers")
    aspects = [
        AspectAnnotation(a["term"], a["from"], a["to"], a["polarity"],
                         tuple(a["token_span"]) if a.get("token_span") else None)
        for a in aspects
    ]
    return TokenizedExample(
        tokens=list(tokens),
        char_spans=[tuple(s) for s in spans],
        pos_ids=list(pos),
        bio_tags=list(bio),
        aspects=aspects,
        text=text,
    )


def write_examples(path: str, examples: list[TokenizedExample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(example_to_record(ex), ensure_ascii=False) + "\n")


def utf8_lines(path: str):
    """(line number, text without its line ending) of each line of a file;
    a line that is not UTF-8 raises CorpusParseError."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                yield lineno, raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise CorpusParseError(f"not UTF-8: {exc.reason}", line=lineno) from exc


def read_examples(path: str) -> list[TokenizedExample]:
    """Examples of a line-delimited JSON file, each one validated; a line
    that is not UTF-8 or not JSON (nesting or an integer past Python's
    limits included), lacks a key, holds a value of the wrong type or fails
    validation raises CorpusParseError with its line number. Other keys,
    such as the `dep` rows of older files, are ignored."""
    out = []
    for lineno, line in utf8_lines(path):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusParseError(f"invalid JSON: {exc.msg}", line=lineno,
                                   column=exc.colno) from exc
        except (ValueError, RecursionError) as exc:   # an integer too long, nesting too deep
            raise CorpusParseError(f"invalid JSON: {exc}", line=lineno) from exc
        try:
            ex = record_to_example(rec)
            ex.validate()
        except KeyError as exc:
            raise CorpusParseError(f"example record lacks key {exc}", line=lineno) from exc
        except (TypeError, ValueError, ContractError) as exc:
            raise CorpusParseError(f"bad example record: {exc}", line=lineno) from exc
        out.append(ex)
    return out
