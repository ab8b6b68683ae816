"""Deterministic synthetic fixtures shared across the test suite.

The templated corpus encodes three learnable regularities:
  * every drug inhibits exactly one protein (cloze probes),
  * six "effective" drugs co-occur with efficacy phrasing while eight
    "negative" drugs co-occur with no-benefit phrasing (ranking probes),
  * drug--protein pairs support analogy items whose surface form
    ("a is to b as c is to d") never appears in the corpus itself.

Lead-ins, verbs, and tails are rotated so drug and protein names co-occur
with varied neighbours, and the fixed vocabulary size below was chosen (by
inspecting learned merges) so every drug and protein name survives as a small
stable token group. Probes built from these fixtures mask token spans of the
full sentence, so byte-pair merges that cross a word boundary never desync a
probe from the training-time tokenization.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from qtmine.corpus import AnalogyItem

DRUGS = (
    "abravir", "bocavir", "cidovir", "dexavir", "elovir", "fabravir",
    "gomivir", "hexavir", "ibravir", "jukavir", "kelavir", "lomivir",
    "mabavir", "nextavir", "opravir", "pexavir", "quinavir", "rotavir",
    "sifravir", "tubavir",
)
PROTS = (
    "protase", "neurase", "polase", "kinase", "helase", "capsase",
    "fusase", "termase", "ligase", "matrase", "envase", "replase",
    "transase", "nucase", "spikase", "membase", "gyrase", "foldase",
    "splicase", "primase",
)
PAIR = dict(zip(DRUGS, PROTS))

# Drug groups are disjoint by frame: inhibition probes use DRUGS only, and the
# trial-outcome sentences use their own names, so a subject pins its frame.
EFFECTIVE = ("tamivir", "zanavir", "peravir", "oselvir", "ribavir", "favivir")
NEGATIVE = ("gemavir", "ocrevir", "senavir", "tidovir", "lanivir", "remivir")
# Never mentioned anywhere, but spelled from fragments the corpus does train.
UNSEEN = ("dolavir", "mitavir")

INHIBIT_VERBS = ("inhibits", "blocks", "suppresses", "disables")
# "inhibits" sentences never carry a tail, so "<drug> inhibits <protein>."
# has exactly one continuation after the protein and cloze probes stay
# unambiguous; the other verbs rotate through the tails.
INHIBIT_TAILS = (
    "", " in cell assays", " in vitro", " in infected cells",
    " during replication", " at low doses",
)
EFFICACY_LEADS = (
    "in clinical trials,", "in randomized trials,", "in controlled studies,",
    "across recent trials,", "in treated cohorts,", "in follow-up studies,",
)
EFFICACY_ADJS = (
    "notable", "marked", "clear", "strong",
    "robust", "durable", "consistent", "superior",
)
NEGATIVE_CONTS = (
    "no significant benefit", "little benefit",
    "minimal benefit", "no added benefit",
)

_FILL_SUBJECTS = ("the study", "the trial", "the cohort",
                  "the panel", "the registry", "the protocol")
_FILL_VERBS = ("enrolled", "reviewed", "assessed",
               "tracked", "recorded", "monitored")
_FILL_OBJECTS = ("adult patients", "viral markers", "dosage levels",
                 "weekly samples", "baseline scores", "safety outcomes")
_FILL_WHENS = ("at baseline", "at day seven", "over twelve weeks",
               "during follow-up", "after treatment", "before enrollment")
N_FILLERS = 480

FILLERS = tuple(
    f"{_FILL_SUBJECTS[i % 6]} {_FILL_VERBS[(i // 6) % 6]} "
    f"{_FILL_OBJECTS[(i // 36) % 6]} {_FILL_WHENS[(i * 5 + i // 6) % 6]}."
    for i in range(N_FILLERS)
)

SENTENCES_SEED = 20260815
SYNTH_VOCAB_SIZE = 640  # frozen by merge inspection: protein names stay chunky
# (2-3 tokens), "efficacy." is a standalone token, and the shared frame token
# "vir demonstrated " survives, while larger vocabularies fuse drug names into
# their frames and smaller ones shatter protein names into single bytes.


def synth_sentences() -> list[str]:
    """Every sentence instance of the corpus, deterministically shuffled."""
    rng = np.random.default_rng(SENTENCES_SEED)
    out: list[str] = []
    for drug in DRUGS:
        prot = PAIR[drug]
        for rep in range(16):
            out.append(f"{drug} inhibits {prot}.")
        for vi, verb in enumerate(INHIBIT_VERBS[1:]):
            for rep in range(16):
                tail = INHIBIT_TAILS[(vi + rep) % len(INHIBIT_TAILS)]
                out.append(f"{drug} {verb} {prot}{tail}.")
        for rep in range(4):
            out.append(f"{drug} corresponds to {prot} in the assay map.")
    for di, drug in enumerate(EFFECTIVE):
        for rep in range(42):
            lead = EFFICACY_LEADS[rep % len(EFFICACY_LEADS)]
            if rep % 3 == 0:
                out.append(f"{lead} {drug} demonstrated efficacy.")
            else:
                adj = EFFICACY_ADJS[(di + rep) % len(EFFICACY_ADJS)]
                out.append(f"{lead} {drug} demonstrated {adj} efficacy.")
    for di, drug in enumerate(NEGATIVE):
        for rep in range(40):
            lead = EFFICACY_LEADS[rep % len(EFFICACY_LEADS)]
            cont = NEGATIVE_CONTS[(di + rep) % len(NEGATIVE_CONTS)]
            out.append(f"{lead} {drug} demonstrated {cont}.")
    out.extend(FILLERS)
    perm = rng.permutation(len(out))
    return [out[i] for i in perm]


def synth_doc_dicts() -> list[dict]:
    """One sentence per document, so probe sequences match training windows."""
    return [
        {"id": f"synth{i:04d}", "title": "", "abstract": "", "body": sentence}
        for i, sentence in enumerate(synth_sentences())
    ]


def synth_texts() -> list[str]:
    return ["\n".join(p for p in (d["title"], d["abstract"], d["body"]) if p)
            for d in synth_doc_dicts()]


def _random_utf8(rng: random.Random) -> str:
    pieces = []
    for _ in range(rng.randint(0, 120)):
        r = rng.random()
        if r < 0.35:
            pieces.append(chr(rng.randint(32, 126)))
        elif r < 0.55:
            pieces.append(chr(rng.randint(0xA0, 0x2FF)))
        elif r < 0.70:
            pieces.append(chr(rng.randint(0x4E00, 0x9FFF)))
        elif r < 0.80:
            pieces.append(chr(rng.randint(0x1F300, 0x1F64F)))
        elif r < 0.90:
            pieces.append(rng.choice(["<mask>", "<pad>", " ", "\n", "\t", "."]))
        else:
            cp = rng.randint(0, 0x10FFFF)
            while 0xD800 <= cp <= 0xDFFF:
                cp = rng.randint(0, 0x10FFFF)
            pieces.append(chr(cp))
    return "".join(pieces)


def round_trip_strings(n: int = 1000, seed: int = 20260815) -> list[str]:
    """Acceptance criterion 1's string set: edge cases, then random UTF-8."""
    rng = random.Random(seed)
    texts = ["", "\x00", "a", "aaa" * 40, "<mask><eos>", "été café"]
    return texts + [_random_utf8(rng) for _ in range(n - len(texts))]


def write_synth_corpus(path: str | Path) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for doc in synth_doc_dicts():
            fh.write(json.dumps(doc) + "\n")
    return path


def cloze_cases() -> list[tuple[str, str]]:
    """(drug, protein) memorization probes: "<drug> inhibits <protein>."."""
    return [(drug, PAIR[drug]) for drug in DRUGS]


def analogy_items(n: int = 60, seed: int = 7) -> list[AnalogyItem]:
    """drug--protein analogy items over distinct pair combinations."""
    rng = np.random.default_rng(seed)
    idx = np.arange(len(DRUGS))
    items: list[AnalogyItem] = []
    made = set()
    while len(items) < n:
        i, j = (int(x) for x in rng.choice(idx, size=2, replace=False))
        if (i, j) in made:
            continue
        made.add((i, j))
        items.append(AnalogyItem(
            item_id=f"drug-inhibition#{len(items)}",
            category="drug-inhibition", subcategory="antiviral",
            a=DRUGS[i], b=PROTS[i], c=DRUGS[j], d=PROTS[j],
        ))
    return items


# --- Clinical-trials style tables -----------------------------------------

TRIAL_TABLE = (
    # year, cumulative records, cumulative unique drugs, cumulative extra diseases
    (2005, 17, 16, 4),
    (2006, 41, 39, 8),
    (2007, 74, 69, 18),
    (2008, 112, 107, 30),
    (2009, 157, 152, 45),
    (2010, 199, 194, 66),
    (2011, 244, 237, 85),
    (2012, 275, 268, 102),
    (2013, 313, 306, 114),
    (2014, 348, 341, 128),
    (2015, 382, 375, 142),
    (2016, 411, 375, 157),  # drugs held flat: a cumulative count cannot decrease
    (2017, 435, 394, 170),
    (2018, 463, 419, 190),
    (2019, 659, 621, 328),
)


def write_trials_csv(path: str | Path) -> Path:
    """A trials table whose cumulative record/drug/disease counts follow TRIAL_TABLE."""
    path = Path(path)
    lines = ["trial_id,year,drugs,condition"]
    drug_total = disease_total = 0
    prev_rec = prev_drug = prev_dis = 0
    pool: list[str] = []
    for year, rec_c, drug_c, dis_c in TRIAL_TABLE:
        r, d, c = rec_c - prev_rec, drug_c - prev_drug, dis_c - prev_dis
        prev_rec, prev_drug, prev_dis = rec_c, drug_c, dis_c
        new = [f"drug{drug_total + i:04d}" for i in range(d)]
        drug_total += d
        per_record: list[list[str]]
        if d <= r:
            reuse = pool if pool else new
            per_record = [[name] for name in new]
            per_record += [[reuse[(year + j) % len(reuse)]] for j in range(r - d)]
        else:
            k = d - r  # records carrying two newly seen drugs
            per_record = [[new[2 * j], new[2 * j + 1]] for j in range(k)]
            per_record += [[name] for name in new[2 * k:]]
        pool.extend(new)
        assert len(per_record) == r
        for j, drugs in enumerate(per_record):
            if j < c:
                condition = f"disease{disease_total + j:04d}"
            else:
                condition = "influenza"
            lines.append(f"NCT{year}{j:04d},{year},{';'.join(drugs)},{condition}")
        disease_total += c
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


ANALOGY_TABLE = (
    ("drug-inhibition", "antiviral", 211),
    ("drug-group", "antiviral", 57),
    ("drug-abbreviation", "antiviral", 57),
    ("drug-approved-target", "antiviral", 73),
    ("opposites", "grammar", 703),
    ("comparatives", "grammar", 651),
    ("superlatives", "grammar", 651),
    ("present-participles", "grammar", 4031),
    ("past-tense", "grammar", 4031),
    ("plural", "grammar", 4169),
    ("plural-verbs", "grammar", 993),
)


def write_analogy_tsv(path: str | Path) -> Path:
    path = Path(path)
    rows = []
    for category, subcategory, count in ANALOGY_TABLE:
        tag = category.replace("-", "")[:6]
        for i in range(count):
            rows.append("\t".join((
                category, subcategory,
                f"{tag}a{i}", f"{tag}b{i}", f"{tag}c{i}", f"{tag}d{i}",
            )))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


# --- Small dated corpus for forward-chaining tests -------------------------

def fc_doc_dicts() -> list[dict]:
    """Dated mini-corpus: 2001/2002 efficacy evidence for two drugs."""
    rng = np.random.default_rng(99)
    sentences_by_year = {2001: [], 2002: []}
    for year, drugs in ((2001, ("tamivir", "gemavir")), (2002, ("zanavir", "ocrevir"))):
        good, bad = drugs
        for rep in range(12):
            lead = EFFICACY_LEADS[rep % len(EFFICACY_LEADS)]
            adj = EFFICACY_ADJS[rep % len(EFFICACY_ADJS)]
            cont = NEGATIVE_CONTS[rep % len(NEGATIVE_CONTS)]
            sentences_by_year[year].append(f"{lead} {good} demonstrated {adj} efficacy.")
            sentences_by_year[year].append(f"{lead} {bad} demonstrated {cont}.")
        for rep in range(6):
            sentences_by_year[year].append(FILLERS[rep % len(FILLERS)])
    docs = []
    for year, sentences in sentences_by_year.items():
        order = rng.permutation(len(sentences))
        shuffled = [sentences[i] for i in order]
        for i in range(0, len(shuffled), 5):
            docs.append({
                "id": f"fc{year}_{i // 5}",
                "title": f"summary {year} {i // 5}",
                "abstract": "",
                "body": " ".join(shuffled[i:i + 5]),
                "publish_year": year,
            })
    return docs


def write_fc_corpus(path: str | Path, extra_docs: list[dict] = ()) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for doc in list(fc_doc_dicts()) + list(extra_docs):
            fh.write(json.dumps(doc) + "\n")
    return path
