"""Auto-QA plumbing: document/table files plus generator, answerer, and judge
implementations (deterministic stubs and LLM-backed versions)."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .backends import Backend, LlmRequest
from .evaluation import QaPair, exact_match_judge, substring_table_answerer
from .jsonl import bool_field, known_keys, read_jsonl, string_field

DEFAULT_QA_PAIRS = 20


@dataclass(frozen=True)
class ScriptedPair(QaPair):
    table_answer: str | None = None  # the stub answerer's reply to this pair, given in place of a table lookup


@dataclass(frozen=True)
class QaDocument:
    id: str
    text: str
    qa: tuple[ScriptedPair, ...] = ()  # the stub path's pairs


def _document(r: dict) -> QaDocument:
    qa = known_keys(r, {"id", "text", "qa"}, "document").get("qa", [])
    if not isinstance(qa, list) or not all(isinstance(item, dict) for item in qa):
        raise TypeError("qa must be a list of objects")
    for item in qa:
        known_keys(item, {"question", "answer", "table_answer", "prescreen_passed"}, "qa")
    pairs = tuple(
        ScriptedPair(string_field(item, "question"), string_field(item, "answer"),
                     bool_field(item, "prescreen_passed", True),
                     string_field(item, "table_answer") if "table_answer" in item else None)
        for item in qa
    )
    return QaDocument(str(r["id"]), string_field(r, "text"), pairs)


def load_documents(path: str | Path) -> list[QaDocument]:
    return read_jsonl(path, _document)


def load_tables(path: str | Path) -> dict[str, str]:
    return dict(read_jsonl(path, lambda r: (str(r["id"]), string_field(r, "table"))))


# --- deterministic stub components ------------------------------------------------

def stub_components(doc: QaDocument):
    """Generator/answerer/judge triple driven entirely by the document's qa list."""

    def qa_gen(_doc_text: str) -> Sequence[QaPair]:
        return doc.qa

    def answerer(table_render: str, pair: ScriptedPair) -> str:
        return substring_table_answerer(table_render, pair) if pair.table_answer is None else pair.table_answer

    return qa_gen, answerer, exact_match_judge


# --- LLM-backed components ---------------------------------------------------------

_QA_LINE = re.compile(r"^\s*(?:\d+[.)]\s*)?Q:\s*(.+?)\s*\|\s*A:\s*(.+?)\s*$", re.MULTILINE)

_GENERATE_PROMPT = (
    "Read the passage and write {n} question-answer pairs that the passage can answer. "
    "Output one pair per line in exactly this format: Q: <question> | A: <answer>\n\n{text}"
)
_TEXT_ANSWER_PROMPT = (
    "Answer the question using only the passage. Reply with the answer only.\n\n"
    "Passage:\n{text}\n\nQuestion: {question}"
)
_TABLE_ANSWER_PROMPT = (
    "Answer the question using only this table. If the table does not contain the "
    "answer, reply UNKNOWN. Reply with the answer only.\n\n"
    "Table:\n{table}\n\nQuestion: {question}"
)
_JUDGE_PROMPT = (
    "Question: {question}\nReference answer: {reference}\nCandidate answer: {candidate}\n\n"
    "Are the candidate and reference equivalent answers to the question? Reply YES or NO."
)


class LlmQa:
    """Question generation, pre-screening, table answering, and judging via a backend."""

    def __init__(self, backend: Backend, model: str, temperature: float = 0.0, n_pairs: int = DEFAULT_QA_PAIRS) -> None:
        self.backend = backend
        self.model = model
        self.temperature = temperature
        self.n_pairs = n_pairs

    def _ask(self, prompt: str) -> str:
        request = LlmRequest(model=self.model, messages=(("user", prompt),), temperature=self.temperature)
        return self.backend.complete(request).text

    def judge(self, question: str, answer: str, reference: str) -> bool:
        reply = self._ask(
            _JUDGE_PROMPT.format(question=question, reference=reference, candidate=answer)
        )
        return reply.strip().lower().startswith("yes")

    def qa_gen(self, doc_text: str) -> list[QaPair]:
        reply = self._ask(_GENERATE_PROMPT.format(n=self.n_pairs, text=doc_text))
        pairs = []
        for question, answer in _QA_LINE.findall(reply):
            text_answer = self._ask(_TEXT_ANSWER_PROMPT.format(text=doc_text, question=question))
            passed = self.judge(question, text_answer, answer)
            pairs.append(QaPair(question=question, reference_answer=answer, prescreen_passed=passed))
        return pairs

    def answerer(self, table_render: str, pair) -> str:
        return self._ask(_TABLE_ANSWER_PROMPT.format(table=table_render, question=pair.question))
