"""Data ingestion tests: JSON-lines corpus, trial/approval CSVs, alias
collapsing, year filtering, and the hash-based train/test split."""

import json

import pytest

from qtmine.corpus import (
    AliasMap,
    Document,
    DocumentSet,
    TrialRecord,
    candidates_at_year,
    filter_by_year,
    group_by_category,
    load_aliases,
    load_analogies,
    load_approvals,
    load_corpus,
    load_trials,
)
from qtmine.errors import DataFormatError


def write_jsonl(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write((obj if isinstance(obj, str) else json.dumps(obj)) + "\n")
    return path


def doc_obj(i, year=None, **extra):
    obj = {"id": f"doc{i}", "title": f"title {i}", "abstract": "abs", "body": f"body {i}"}
    if year is not None:
        obj["publish_year"] = year
    obj.update(extra)
    return obj


# ---------------------------------------------------------------------------
# Corpus loading


def test_load_corpus_keeps_file_order(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [doc_obj(i, 2000 + i) for i in range(5)])
    docs = load_corpus(path)
    assert [d.id for d in docs.documents] == [f"doc{i}" for i in range(5)]
    assert docs.malformed_count == 0
    assert len(docs) == 5
    assert list(docs) == docs.documents
    assert docs.documents[2].publish_year == 2002


def test_load_corpus_skips_malformed_lines(tmp_path):
    rows = [
        doc_obj(0, 2001),
        "not json at all",
        json.dumps(["a", "list"]),
        doc_obj(1),                                  # fine: undated
        json.dumps({"id": "x", "title": "t"}),       # missing fields
        doc_obj(2, year=1492),                       # year out of range
        doc_obj(3, year=True),                       # bool year
        json.dumps(doc_obj(0, 2001)),                # duplicate id
        doc_obj(4, 2004),
        "[" * 200_000 + "]" * 200_000,               # nested too deeply to parse
        "",
    ]
    path = write_jsonl(tmp_path / "c.jsonl", rows)
    docs = load_corpus(path)
    assert [d.id for d in docs.documents] == ["doc0", "doc1", "doc4"]
    assert docs.malformed_count == 7
    assert docs.documents[1].publish_year is None


def test_load_corpus_missing_file(tmp_path):
    with pytest.raises(DataFormatError):
        load_corpus(tmp_path / "absent.jsonl")


def test_load_corpus_skips_lines_that_are_not_utf8(tmp_path):
    path = tmp_path / "c.jsonl"
    good = [json.dumps(doc_obj(i, 2000 + i)).encode() for i in range(3)]
    bad = json.dumps(doc_obj(9, 2009)).encode().replace(b"title", b"tit\xffle")
    path.write_bytes(b"\n".join([good[0], bad, good[1], b"\xc3", good[2]]) + b"\n")
    docs = load_corpus(path)
    assert [d.id for d in docs.documents] == ["doc0", "doc1", "doc2"]
    assert docs.malformed_count == 2


@pytest.mark.parametrize("field", ["id", "title", "source"])
def test_load_corpus_skips_a_lone_surrogate_escape(tmp_path, qtmine_log, field):
    bad = doc_obj(9, 2009, source="s")
    bad[field] = "x\ud800y"
    path = write_jsonl(tmp_path / "c.jsonl", [doc_obj(0), bad, doc_obj(1)])
    docs = load_corpus(path)
    assert [d.id for d in docs.documents] == ["doc0", "doc1"]
    assert docs.malformed_count == 1
    assert f"line=2 reason=line is not valid UTF-8: field '{field}'" in qtmine_log[0]


@pytest.mark.parametrize("loader", [load_corpus, load_trials, load_aliases,
                                    load_approvals, load_analogies])
def test_loaders_reject_a_directory(tmp_path, loader):
    with pytest.raises(DataFormatError, match="cannot read"):
        loader(tmp_path)


@pytest.mark.parametrize("loader", [load_trials, load_aliases, load_approvals,
                                    load_analogies])
def test_table_loaders_reject_non_utf8(tmp_path, loader):
    path = tmp_path / "table.csv"
    path.write_bytes(b"trial_id,year,drugs,condition\nT1,2001,tami\xffvir,flu\n")
    with pytest.raises(DataFormatError, match="not valid UTF-8"):
        loader(path)


@pytest.mark.parametrize("loader", [load_trials, load_aliases, load_approvals,
                                    load_analogies])
def test_a_decode_error_after_a_bom_gives_the_offset_in_the_file(tmp_path, loader):
    path = tmp_path / "table.csv"
    path.write_bytes(b"\xef\xbb\xbftrial_id\n\xff\n")
    with pytest.raises(DataFormatError, match="not valid UTF-8 at byte 12$"):
        loader(path)


BOM_CASES = [
    (load_corpus, "c.jsonl", "".join(json.dumps(doc_obj(i, 2000 + i)) + "\n" for i in range(3))),
    (load_trials, "t.csv", "trial_id,year,drugs,condition\nT1,2001,tamivir,flu\n"),
    (load_aliases, "a.csv", "trade_name,scientific_name\nTamiflu,oseltamivir\n"),
    (load_approvals, "ap.csv", "drug,approval_year\ntamivir,2003\n"),
    (load_analogies, "an.tsv", "opposites\tgrammar\tgood\tbad\thot\tcold\n"
                               "opposites\tgrammar\tup\tdown\tfast\tslow\n"),
]


@pytest.mark.parametrize("loader,name,text", BOM_CASES, ids=[c[1] for c in BOM_CASES])
def test_loaders_read_a_file_with_a_bom_as_the_plain_file(tmp_path, loader, name, text):
    plain, bom = tmp_path / name, tmp_path / ("bom-" + name)
    plain.write_text(text, encoding="utf-8")
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert loader(bom) == loader(plain)


def test_document_text_joins_nonempty_parts():
    d = Document(id="a", title="T", abstract="", body="B")
    assert d.text() == "T\nB"
    assert Document(id="b", title="", abstract="", body="").text() == ""


def test_filter_by_year_drops_undated(tmp_path):
    docs = DocumentSet([
        Document("a", "t", "", "b", publish_year=1999),
        Document("b", "t", "", "b", publish_year=2005),
        Document("c", "t", "", "b", publish_year=None),
        Document("d", "t", "", "b", publish_year=2001),
    ])
    kept = filter_by_year(docs, 2001)
    assert [d.id for d in kept.documents] == ["a", "d"]


# ---------------------------------------------------------------------------
# Train/test split


def split_ids(docs, seed):
    train, test = docs.split(seed)
    return {d.id for d in train.documents}, {d.id for d in test.documents}


def test_split_is_deterministic_and_partitions():
    docs = DocumentSet([Document(f"d{i}", "t", "", "b") for i in range(200)])
    tr1, te1 = split_ids(docs, seed=1)
    tr2, te2 = split_ids(docs, seed=1)
    assert (tr1, te1) == (tr2, te2)
    assert tr1 | te1 == {f"d{i}" for i in range(200)}
    assert not (tr1 & te1)
    # roughly TEST_FRACTION (0.20)
    assert 15 <= len(te1) <= 70
    tr3, _ = split_ids(docs, seed=2)
    assert tr3 != tr1


def test_split_membership_stable_under_reordering_and_insertion():
    base = [Document(f"d{i}", "t", "", "b") for i in range(100)]
    _, te_before = split_ids(DocumentSet(base), seed=9)
    reordered = DocumentSet(base[::-1])
    _, te_reordered = split_ids(reordered, seed=9)
    assert te_reordered == te_before
    grown = DocumentSet(base + [Document("new-doc", "t", "", "b")])
    _, te_grown = split_ids(grown, seed=9)
    assert te_grown - {"new-doc"} == te_before


# ---------------------------------------------------------------------------
# Aliases and trials


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")
    return path


def test_alias_map_canonicalizes():
    aliases = AliasMap({"tamiflu": "oseltamivir"})
    assert aliases.canonical(" TamiFlu ") == "oseltamivir"
    assert aliases.canonical("oseltamivir") == "oseltamivir"
    assert aliases.canonical("unknown") == "unknown"


def test_alias_map_rejects_chains():
    with pytest.raises(DataFormatError):
        AliasMap({"a": "b", "b": "c"}).validate()
    AliasMap({"a": "b", "x": "b"}).validate()  # shared target is fine


def test_load_aliases(tmp_path):
    path = write_csv(tmp_path / "a.csv", "trade_name,scientific_name",
                     ["Tamiflu,Oseltamivir", "Relenza,zanamivir", ",skipped"])
    aliases = load_aliases(path)
    assert aliases.pairs == {"tamiflu": "oseltamivir", "relenza": "zanamivir"}


@pytest.mark.parametrize("loader,header", [
    (load_trials, "trial_id,year,drugs,condition"),
    (load_approvals, "drug,approval_year"),
    (load_aliases, "trade_name,scientific_name"),
])
def test_csv_loaders_reject_a_field_over_the_size_limit(tmp_path, loader, header):
    # The csv module refuses a field over csv.field_size_limit(), 131,072 characters.
    path = write_csv(tmp_path / "t.csv", header, ["x" * 200_000 + ",2001"])
    with pytest.raises(DataFormatError, match=r"t\.csv:2: field larger than field limit"):
        loader(path)


def test_load_trials_normalizes_drugs(tmp_path):
    apath = write_csv(tmp_path / "a.csv", "trade_name,scientific_name", ["Tamiflu,oseltamivir"])
    tpath = write_csv(
        tmp_path / "t.csv",
        "trial_id,year,drugs,condition",
        [
            "T1,2005,Tamiflu; oseltamivir ;ZANAMIVIR,influenza",
            "T2,not-a-year,drugx,flu",
            "T3,2006,; ;,flu",
            "T4,2007,drugy,colds",
        ],
    )
    trials = load_trials(tpath, load_aliases(apath))
    assert [t.trial_id for t in trials] == ["T1", "T4"]
    assert trials[0].drugs == ("oseltamivir", "zanamivir")  # collapsed + deduped, order kept
    assert trials[0].condition == "influenza"
    assert trials[1].year == 2007


def test_load_trials_missing_column(tmp_path):
    path = write_csv(tmp_path / "t.csv", "trial_id,year,condition", ["T1,2005,flu"])
    with pytest.raises(DataFormatError):
        load_trials(path)


def test_candidates_at_year():
    trials = [
        TrialRecord("T1", 2001, ("b", "a"), "x"),
        TrialRecord("T2", 2003, ("c",), "x"),
        TrialRecord("T3", 2005, ("d", "a"), "x"),
    ]
    assert candidates_at_year(trials, 2000) == []
    assert candidates_at_year(trials, 2001) == ["a", "b"]
    assert candidates_at_year(trials, 2003) == ["a", "b", "c"]
    assert candidates_at_year(trials, 2010) == ["a", "b", "c", "d"]


def test_load_approvals(tmp_path):
    path = write_csv(tmp_path / "ap.csv", "drug,approval_year",
                     ["Tamiflu,1999", "zanamivir,bad-year", "peramivir,2014"])
    aliases = AliasMap({"tamiflu": "oseltamivir"})
    records = load_approvals(path, aliases)
    assert [(r.drug, r.approval_year) for r in records] == [
        ("oseltamivir", 1999), ("peramivir", 2014)]


def test_load_trials_skips_a_year_out_of_range(tmp_path, qtmine_log):
    path = write_csv(tmp_path / "t.csv", "trial_id,year,drugs,condition",
                     ["T1,20100,drugx,flu", "T2,1899,drugy,flu", "T3,1900,drugz,flu", "T4,2100,drugw,flu"])
    assert [(t.trial_id, t.year) for t in load_trials(path)] == [("T3", 1900), ("T4", 2100)]
    assert qtmine_log == ["event=trial_skipped line=2 reason=year_out_of_range value=20100",
                          "event=trial_skipped line=3 reason=year_out_of_range value=1899"]


def test_load_approvals_skips_a_year_out_of_range_and_an_empty_drug(tmp_path, qtmine_log):
    # A typo such as 20100 would count as "approved later" at every cutoff.
    path = write_csv(tmp_path / "ap.csv", "drug,approval_year",
                     ["drugx,20100", ",2004", " ,2005", "drugy,2006", "drugz,-3"])
    assert [(r.drug, r.approval_year) for r in load_approvals(path)] == [("drugy", 2006)]
    assert qtmine_log == ["event=approval_skipped line=2 reason=year_out_of_range value=20100",
                          "event=approval_skipped line=3 reason=empty_drug",
                          "event=approval_skipped line=4 reason=empty_drug",
                          "event=approval_skipped line=6 reason=year_out_of_range value=-3"]


# ---------------------------------------------------------------------------
# Analogies


def test_load_analogies_assigns_per_category_ids(tmp_path):
    path = tmp_path / "an.tsv"
    path.write_text(
        "opposites\tgrammar\tgood\tbad\thot\tcold\n"
        "\n"
        "drug-inhibition\tantiviral\ta\tb\tc\td\n"
        "opposites\tgrammar\tup\tdown\tfast\tslow\n",
        encoding="utf-8",
    )
    items = load_analogies(path)
    assert [it.item_id for it in items] == ["opposites#0", "drug-inhibition#0", "opposites#1"]
    assert items[0].subcategory == "grammar"
    assert items[1].d == "d"
    groups = group_by_category(items)
    assert set(groups) == {("opposites", "grammar"), ("drug-inhibition", "antiviral")}
    assert len(groups[("opposites", "grammar")]) == 2


@pytest.mark.parametrize("line", [
    "opposites\tgrammar\tgood\tbad\thot",                  # 5 columns
    "opposites\tnope\tgood\tbad\thot\tcold",               # unknown subcategory
    "opposites\tgrammar\tgood\tbad\thot\t",                # empty term
])
def test_load_analogies_rejects_bad_rows(tmp_path, line):
    path = tmp_path / "an.tsv"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_analogies(path)


def test_load_analogies_missing_file(tmp_path):
    with pytest.raises(DataFormatError):
        load_analogies(tmp_path / "absent.tsv")


def test_load_analogies_reads_crlf_like_lf(tmp_path):
    rows = ["opposites\tgrammar\tgood\tbad\thot\tcold", "",
            "opposites\tgrammar\tup\tdown\tfast\tslow"]
    lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
    lf.write_bytes("".join(r + "\n" for r in rows).encode("utf-8"))
    crlf.write_bytes("".join(r + "\r\n" for r in rows).encode("utf-8"))
    items = load_analogies(lf)
    assert len(items) == 2
    assert load_analogies(crlf) == items
