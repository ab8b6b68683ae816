"""Seeded input generator for the benchmark workloads.

Everything the program sees is written here from one integer seed: the
JSON-lines corpus, the trials, aliases and approvals CSVs, the analogy TSV,
the highlight passages and the run config. The same seed and size give the
same bytes. Different seeds give inputs of the same shape, so a run's work
does not depend on the seed: the document at each position has a fixed
sentence count and year, each drug slot a fixed trial and evidence year, and
the program's own seed in the run config is fixed, so the train/eval split
and the batch order are the same. The seed changes the names, the sentences
and the tables' contents.

The sentence frames follow the synthetic corpus of the test suite: drugs
inhibit proteins, "effective" drugs co-occur with efficacy phrasing and
"negative" drugs with no-benefit phrasing, and filler sentences pad the rest.
A seeded lexicon of made-up words widens the filler vocabulary, so a large
tokenizer has thousands of merges to learn.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SYLLABLES = (
    "ba", "ce", "di", "fo", "gu", "ha", "ke", "li", "mo", "nu", "pa", "re",
    "si", "to", "vu", "xa", "ze", "bro", "cla", "dre", "fli", "gra", "plo",
    "tri", "sko", "vel", "mar", "ton",
)
DRUG_SUFFIXES = ("vir", "mab", "nib", "stat", "pril", "zole")
INHIBIT_VERBS = ("inhibits", "blocks", "suppresses", "disables")
INHIBIT_TAILS = ("", " in cell assays", " in vitro", " in infected cells",
                 " during replication", " at low doses")
EFFICACY_LEADS = ("In clinical trials,", "In randomized trials,", "In controlled studies,",
                  "Across recent trials,", "In treated cohorts,", "In follow-up studies,")
EFFICACY_ADJS = ("notable", "marked", "clear", "strong", "robust", "durable",
                 "consistent", "superior")
NEGATIVE_CONTS = ("no significant benefit", "little benefit", "minimal benefit",
                  "no added benefit")
FILL_SUBJECTS = ("The study", "The trial", "The cohort", "The panel", "The registry",
                 "The protocol")
FILL_VERBS = ("enrolled", "reviewed", "assessed", "tracked", "recorded", "monitored")
FILL_OBJECTS = ("adult patients", "viral markers", "dosage levels", "weekly samples",
                "baseline scores", "safety outcomes")
FILL_WHENS = ("at baseline", "at day seven", "over twelve weeks", "during follow-up",
              "after treatment", "before enrollment")

TEMPLATE = "In clinical trials, {drug} demonstrated <mask> <mask> <mask>."
TARGET = "clinical trials efficacy"
NEGATIVE_TARGET = "no significant benefit"


@dataclass(frozen=True)
class Size:
    """Shape of one workload's inputs; identical for every seed."""

    n_docs: int              # documents in the corpus
    max_sentences: int       # documents have 1..max_sentences sentences
    n_drugs: int             # inhibition drugs (each paired with a protein)
    n_effective: int
    n_negative: int
    n_lexicon: int           # made-up filler words; 0 means the plain filler frames
    n_analogies: int
    n_passages: int
    passage_sentences: int
    years: tuple[int, int] = (2005, 2012)   # trial and document years, inclusive
    dated: bool = False      # give every document a publish_year


def _names(rng: np.random.Generator, n: int, suffixes: tuple[str, ...],
           taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        stem = "".join(rng.choice(SYLLABLES, size=int(rng.integers(2, 4))))
        name = stem + str(rng.choice(suffixes))
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


class Generator:
    """Draws names once per seed, then sentences, documents and tables."""

    def __init__(self, seed: int, size: Size):
        self.size = size
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9E3779B9]))
        taken: set[str] = set()
        rng = self.rng
        self.drugs = _names(rng, size.n_drugs, DRUG_SUFFIXES, taken)
        self.prots = _names(rng, size.n_drugs, ("ase",), taken)
        self.effective = _names(rng, size.n_effective, DRUG_SUFFIXES, taken)
        self.negative = _names(rng, size.n_negative, DRUG_SUFFIXES, taken)
        self.lexicon = _names(rng, size.n_lexicon, ("", "al", "ic", "ine", "ose"), taken)
        trialed = self.effective + self.negative
        self.trade = dict(zip(trialed, (t.capitalize() for t in
                                        _names(rng, len(trialed), ("rex",), taken))))
        lo, hi = size.years
        # Efficacy evidence for a drug starts in its evidence year; approval
        # follows two years later, so later cutoffs see the drug approved.
        self.evidence_year = {d: lo + k % (hi - lo + 1) for k, d in enumerate(self.effective)}

    # -- sentences ---------------------------------------------------------

    def _filler(self) -> str:
        rng = self.rng
        subj = str(rng.choice(FILL_SUBJECTS))
        verb = str(rng.choice(FILL_VERBS))
        obj = str(rng.choice(FILL_OBJECTS))
        when = str(rng.choice(FILL_WHENS))
        if self.lexicon:
            w1, w2 = rng.choice(self.lexicon, size=2)
            return f"{subj} {verb} {w1} {obj} with {w2} {when}."
        return f"{subj} {verb} {obj} {when}."

    def sentence(self, year: int | None = None) -> str:
        """One sentence; efficacy sentences only name drugs with evidence by `year`."""
        rng = self.rng
        kind = rng.random()
        if kind < 0.30:
            i = int(rng.integers(len(self.drugs)))
            verb = str(rng.choice(INHIBIT_VERBS))
            tail = "" if verb == "inhibits" else str(rng.choice(INHIBIT_TAILS))
            return f"{self.drugs[i]} {verb} {self.prots[i]}{tail}."
        lead = str(rng.choice(EFFICACY_LEADS))
        if kind < 0.50:
            pool = [d for d in self.effective
                    if year is None or self.evidence_year[d] <= year]
            if pool:
                drug = str(rng.choice(pool))
                if rng.random() < 0.33:
                    return f"{lead} {drug} demonstrated efficacy."
                return f"{lead} {drug} demonstrated {rng.choice(EFFICACY_ADJS)} efficacy."
        if kind < 0.65:
            drug = str(rng.choice(self.negative))
            return f"{lead} {drug} demonstrated {rng.choice(NEGATIVE_CONTS)}."
        return self._filler()

    # -- documents ---------------------------------------------------------

    def documents(self) -> list[dict]:
        """n_docs documents; position i has 1 + i % max_sentences sentences."""
        size = self.size
        lo, hi = size.years
        docs = []
        for i in range(size.n_docs):
            k = 1 + i % size.max_sentences
            year = lo + (i * 7) % (hi - lo + 2) if size.dated else None
            doc = {"id": f"doc{i:05d}", "title": "", "abstract": "",
                   "body": " ".join(self.sentence(year) for _ in range(k))}
            if year is not None:
                doc["publish_year"] = year
            docs.append(doc)
        return docs

    def passage(self) -> str:
        return " ".join(self.sentence() for _ in range(self.size.passage_sentences)) + "\n"

    # -- tables ------------------------------------------------------------

    def trials(self) -> list[tuple[str, int, str, str]]:
        """One trial per effective and negative drug, in a year fixed by its slot.

        Effective drugs are trialed in their evidence year; every third trial
        names its drug by trade name, so the alias map is exercised.
        """
        lo, hi = self.size.years
        rows = []
        entries = [(d, self.evidence_year[d]) for d in self.effective]
        entries += [(d, hi - k % (hi - lo + 1)) for k, d in enumerate(self.negative)]
        for j, (drug, year) in enumerate(entries):
            name = self.trade[drug] if j % 3 == 0 else drug
            rows.append((f"NCT{year}{j:04d}", year, name, "influenza"))
        return rows

    def aliases(self) -> list[tuple[str, str]]:
        return [(self.trade[d], d) for d in self.effective + self.negative]

    def approvals(self) -> list[tuple[str, int]]:
        return [(d, self.evidence_year[d] + 2) for d in self.effective]

    def analogies(self) -> list[tuple[str, ...]]:
        """drug--protein items (antiviral) plus lexicon plurals (grammar)."""
        rng = self.rng
        rows = []
        n_grammar = self.size.n_analogies // 4 if self.lexicon else 0
        while len(rows) < self.size.n_analogies - n_grammar:
            i, j = (int(x) for x in rng.choice(len(self.drugs), size=2, replace=False))
            rows.append(("drug-inhibition", "antiviral",
                         self.drugs[i], self.prots[i], self.drugs[j], self.prots[j]))
        for _ in range(n_grammar):
            a, c = (str(w) for w in rng.choice(self.lexicon, size=2, replace=False))
            rows.append(("plural", "grammar", a, a + "s", c, c + "s"))
        return rows


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_inputs(root: Path, seed: int, size: Size, config: dict) -> Generator:
    """Write every input file under root and return the generator for its facts."""
    root.mkdir(parents=True, exist_ok=True)
    gen = Generator(seed, size)
    (root / "corpus.jsonl").write_text(
        "".join(json.dumps(doc) + "\n" for doc in gen.documents()), encoding="utf-8")
    _write_csv(root / "trials.csv", "trial_id,year,drugs,condition", gen.trials())
    _write_csv(root / "aliases.csv", "trade_name,scientific_name", gen.aliases())
    _write_csv(root / "approvals.csv", "drug,approval_year", gen.approvals())
    (root / "analogies.tsv").write_text(
        "".join("\t".join(row) + "\n" for row in gen.analogies()), encoding="utf-8")
    for i in range(size.n_passages):
        (root / f"passage{i}.txt").write_text(gen.passage(), encoding="utf-8")
    run = {"corpus": str(root / "corpus.jsonl"), "trials": str(root / "trials.csv"),
           "aliases": str(root / "aliases.csv"), "approvals": str(root / "approvals.csv"),
           "analogies": str(root / "analogies.tsv"), "output_dir": str(root / "out"),
           "checkpoint_dir": str(root / "out"), "template": TEMPLATE, "target": TARGET,
           "seed": 0, **config}
    (root / "run.json").write_text(json.dumps(run, indent=2) + "\n", encoding="utf-8")
    return gen
