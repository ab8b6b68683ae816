"""Ingestion of literature documents, clinical-trial records, approvals, and analogy sets.

File formats:
  corpus     JSON-lines, one document per line; required fields id, title,
             abstract, body; publish_year optional (undated documents are kept
             for training but excluded from year-limited views)
  trials     CSV header trial_id,year,drugs,condition; drugs semicolon-separated
  aliases    CSV header trade_name,scientific_name
  approvals  CSV header drug,approval_year
  analogies  TSV columns category, subcategory, a, b, c, d; one subcategory per category
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataFormatError
from .util import get_logger, kv, read_text

log = get_logger(__name__)

YEAR_MIN, YEAR_MAX = 1900, 2100
SUBCATEGORIES = ("antiviral", "grammar")
# Share of documents that `DocumentSet.split` puts in the test set.
TEST_FRACTION = 0.20


@dataclass(frozen=True)
class Document:
    id: str
    title: str
    abstract: str
    body: str
    publish_year: int | None = None
    source: str = ""
    license: str = ""

    def text(self) -> str:
        """Document text used for tokenizer and model training."""
        return "\n".join(part for part in (self.title, self.abstract, self.body) if part)


@dataclass
class DocumentSet:
    documents: list[Document]
    malformed_count: int = 0

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def split(self, seed: int) -> tuple["DocumentSet", "DocumentSet"]:
        """Deterministic train/test split by hashing document id with the seed;
        about TEST_FRACTION of the documents go to the test set.

        Membership depends only on (seed, id), so it is byte-identical across
        runs and stable under corpus reordering or insertion of new documents.
        """
        train, test = [], []
        for doc in self.documents:
            digest = hashlib.sha256(f"{seed}:{doc.id}".encode("utf-8")).digest()
            u = int.from_bytes(digest[:8], "big") / 2**64
            (test if u < TEST_FRACTION else train).append(doc)
        return DocumentSet(train), DocumentSet(test)


@dataclass(frozen=True)
class TrialRecord:
    trial_id: str
    year: int
    drugs: tuple[str, ...]
    condition: str


@dataclass
class AliasMap:
    """Trade-name to scientific-name map; scientific names are fixed points."""

    pairs: dict[str, str] = field(default_factory=dict)

    def canonical(self, name: str) -> str:
        key = name.strip().lower()
        return self.pairs.get(key, key)

    def validate(self) -> None:
        for trade, sci in self.pairs.items():
            if sci in self.pairs and self.pairs[sci] != sci:
                raise DataFormatError(
                    f"alias map not idempotent: {trade!r} -> {sci!r} -> {self.pairs[sci]!r}"
                )


@dataclass(frozen=True)
class ApprovalRecord:
    drug: str
    approval_year: int


@dataclass(frozen=True)
class AnalogyItem:
    item_id: str
    category: str
    subcategory: str
    a: str
    b: str
    c: str
    d: str


def _parse_document(obj: dict) -> Document:
    text = {key: str(obj.get(key, "")) for key in ("id", "title", "abstract", "body",
                                                    "source", "license")}
    for key, value in text.items():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:  # an undecodable byte or a \ud800 escape
            raise ValueError(f"line is not valid UTF-8: field {key!r} holds a lone surrogate") from None
    for key in ("id", "title", "abstract", "body"):
        if key not in obj or obj[key] is None:
            raise ValueError(f"missing required field {key!r}")
    year = obj.get("publish_year")
    if year is not None:
        if not isinstance(year, int) or isinstance(year, bool):
            raise ValueError(f"publish_year must be an integer, got {year!r}")
        if not YEAR_MIN <= year <= YEAR_MAX:
            raise ValueError(f"publish_year {year} outside [{YEAR_MIN}, {YEAR_MAX}]")
    return Document(publish_year=year, **text)


def load_corpus(path: str | Path) -> DocumentSet:
    """Load a JSON-lines corpus in file order, skipping malformed lines with a count.

    A document with a field that is not valid UTF-8, from an undecodable
    byte or a lone-surrogate escape, is malformed like any other bad line.
    """
    text = read_text(path, "corpus", errors="surrogateescape")
    documents: list[Document] = []
    seen_ids: set[str] = set()
    malformed = 0
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("line is not a JSON object")
            doc = _parse_document(obj)
            if doc.id in seen_ids:
                raise ValueError(f"duplicate document id {doc.id!r}")
        except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deeply
            malformed += 1
            log.warning(kv(event="malformed_document", line=lineno, reason=str(exc)))
            continue
        seen_ids.add(doc.id)
        documents.append(doc)
    log.info(kv(event="corpus_loaded", path=path, documents=len(documents), malformed=malformed))
    return DocumentSet(documents, malformed_count=malformed)


def filter_by_year(docs: DocumentSet, cutoff: int) -> DocumentSet:
    """Documents with publish_year <= cutoff, original order; undated ones drop out."""
    kept = [d for d in docs.documents if d.publish_year is not None and d.publish_year <= cutoff]
    return DocumentSet(kept)


def load_aliases(path: str | Path) -> AliasMap:
    pairs = {}
    for lineno, row in _read_csv(path, ("trade_name", "scientific_name")):
        trade = row["trade_name"].strip().lower()
        sci = row["scientific_name"].strip().lower()
        if not (trade and sci):
            log.warning(kv(event="alias_skipped", line=lineno, reason="empty_name"))
            continue
        pairs[trade] = sci
    aliases = AliasMap(pairs)
    try:
        aliases.validate()
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    return aliases


def load_trials(path: str | Path, aliases: AliasMap | None = None) -> list[TrialRecord]:
    """Load trial rows; drug names are lower-cased, alias-collapsed, de-duplicated."""
    aliases = aliases if aliases is not None else AliasMap()
    records: list[TrialRecord] = []
    for lineno, row in _read_csv(path, ("trial_id", "year", "drugs", "condition")):
        year = _row_year(row["year"], "trial_skipped", lineno)
        if year is None:
            continue
        drugs: list[str] = []
        for raw in row["drugs"].split(";"):
            name = aliases.canonical(raw)
            if name and name not in drugs:
                drugs.append(name)
        if not drugs:
            log.warning(kv(event="trial_skipped", line=lineno, reason="empty_drugs"))
            continue
        records.append(
            TrialRecord(
                trial_id=row["trial_id"].strip(),
                year=year,
                drugs=tuple(drugs),
                condition=row["condition"].strip(),
            )
        )
    log.info(kv(event="trials_loaded", path=path, records=len(records)))
    return records


def candidates_at_year(trials: list[TrialRecord], year: int) -> list[str]:
    """Unique canonical drugs over records dated at or before `year`, sorted."""
    names = {drug for rec in trials if rec.year <= year for drug in rec.drugs}
    return sorted(names)


def load_approvals(path: str | Path, aliases: AliasMap | None = None) -> list[ApprovalRecord]:
    aliases = aliases if aliases is not None else AliasMap()
    records = []
    for lineno, row in _read_csv(path, ("drug", "approval_year")):
        year = _row_year(row["approval_year"], "approval_skipped", lineno)
        if year is None:
            continue
        drug = aliases.canonical(row["drug"])
        if not drug:
            log.warning(kv(event="approval_skipped", line=lineno, reason="empty_drug"))
            continue
        records.append(ApprovalRecord(drug=drug, approval_year=year))
    log.info(kv(event="approvals_loaded", path=path, records=len(records)))
    return records


def _row_year(raw: str, event: str, lineno: int) -> int | None:
    """A CSV row's year, or None, with a warning, when it is not an integer
    in YEAR_MIN..YEAR_MAX."""
    try:
        year = int(raw.strip())
    except ValueError:
        log.warning(kv(event=event, line=lineno, reason="unparseable_year", value=raw))
        return None
    if not YEAR_MIN <= year <= YEAR_MAX:
        log.warning(kv(event=event, line=lineno, reason="year_out_of_range", value=year))
        return None
    return year


def load_analogies(path: str | Path) -> list[AnalogyItem]:
    """Load the analogy TSV; item ids are `category#ordinal` within each category."""
    text = read_text(path, "analogies file")
    items: list[AnalogyItem] = []
    per_category: dict[str, int] = {}
    subcategory_of: dict[str, str] = {}
    for lineno, line in enumerate(io.StringIO(text, newline=""), start=1):
        line = line.rstrip("\r\n")
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 6:
            raise DataFormatError(f"{path}:{lineno}: expected 6 tab-separated columns, got {len(cols)}")
        category, subcategory, a, b, c, d = (col.strip() for col in cols)
        if subcategory not in SUBCATEGORIES:
            raise DataFormatError(
                f"{path}:{lineno}: subcategory must be one of {SUBCATEGORIES}, got {subcategory!r}"
            )
        if not all((a, b, c, d)):
            raise DataFormatError(f"{path}:{lineno}: analogy terms must be nonempty")
        if subcategory_of.setdefault(category, subcategory) != subcategory:
            raise DataFormatError(f"{path}:{lineno}: category {category!r} is under subcategory "
                                  f"{subcategory_of[category]!r}, got {subcategory!r}")
        ordinal = per_category.get(category, 0)
        per_category[category] = ordinal + 1
        items.append(AnalogyItem(f"{category}#{ordinal}", category, subcategory, a, b, c, d))
    for category, count in per_category.items():
        log.info(kv(event="analogy_category", category=category, items=count))
    return items


def _read_csv(path: str | Path, required: tuple[str, ...]) -> list[tuple[int, dict[str, str]]]:
    """Each row with the number of the line it ends on, so a quoted field that
    spans lines does not shift the numbers of the rows after it."""
    reader = csv.DictReader(io.StringIO(read_text(path, "CSV file"), newline=""))
    try:
        header = reader.fieldnames or []
        for column in required:
            if column not in header:
                raise DataFormatError(f"{path}: missing required column {column!r}")
        return [(reader.line_num, {k: (v or "") for k, v in row.items()}) for row in reader]
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        # DictReader.line_num still counts the last good row; its reader's counts this one.
        raise DataFormatError(f"{path}:{reader.reader.line_num}: {exc}") from None
