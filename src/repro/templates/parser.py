"""Template parser (the paper used a Perl script for this stage)."""

from __future__ import annotations

import re
from typing import Dict, Optional

from repro.templates.markers import (
    CHECK_CLOSE,
    CHECK_OPEN,
    CHECK_TAG,
    CROSS_OPEN,
    CROSS_TAG,
)
from repro.templates.model import TemplateError, TestTemplate

_TAG_RE = re.compile(
    r"<acctv:(?P<name>[a-z]+)(?P<attrs>[^>]*)>(?P<body>.*?)</acctv:(?P=name)>",
    re.DOTALL,
)
_ATTR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*\"([^\"]*)\"")

_HEADER_TAGS = {
    "testdescription", "directive", "language", "version", "dependences",
    "testname", "defaults",
}


def _extract(body: str, tag: str, required: bool = False) -> Optional[str]:
    open_tag = f"<acctv:{tag}"
    start = body.find(open_tag)
    if start == -1:
        if required:
            raise TemplateError(f"missing required <acctv:{tag}> tag")
        return None
    gt = body.find(">", start)
    if gt == -1:
        raise TemplateError(f"malformed <acctv:{tag}> tag")
    close_tag = f"</acctv:{tag}>"
    end = body.find(close_tag, gt)
    if end == -1:
        raise TemplateError(f"unterminated <acctv:{tag}> tag")
    return body[gt + 1 : end]


def _extract_attrs(body: str, tag: str) -> Dict[str, str]:
    open_tag = f"<acctv:{tag}"
    start = body.find(open_tag)
    if start == -1:
        return {}
    gt = body.find(">", start)
    return dict(_ATTR_RE.findall(body[start:gt]))


def parse_template(text: str, name: Optional[str] = None) -> TestTemplate:
    """Parse one template document into a :class:`TestTemplate`.

    Raises :class:`TemplateError` on structural problems: a missing root,
    missing directive/testcode sections, or unbalanced check markers.
    """
    root = _extract(text, "test", required=True)

    feature = _extract(root, "directive", required=True).strip()
    code = _extract(root, "testcode", required=True)
    language = (_extract(root, "language") or "c").strip().lower()
    if language not in ("c", "fortran"):
        raise TemplateError(f"unknown template language {language!r}")
    description = (_extract(root, "testdescription") or "").strip()
    version = (_extract(root, "version") or "1.0").strip()
    dependences_text = _extract(root, "dependences") or ""
    dependences = [d for d in re.split(r"[,\s]+", dependences_text.strip()) if d]
    tname = (_extract(root, "testname") or "").strip()
    if not tname:
        tname = name or f"{feature}.{language}"
    defaults = _extract_attrs(root, "defaults")
    crossexpect = (_extract(root, "crossexpect") or "different").strip().lower()
    if crossexpect not in ("different", "same"):
        raise TemplateError(f"invalid crossexpect value {crossexpect!r}")
    environment = _extract_attrs(root, "environment")

    _check_balance(code)
    # code must not be empty
    if not code.strip():
        raise TemplateError("empty <acctv:testcode> section")

    return TestTemplate(
        name=tname,
        feature=feature,
        language=language,
        code=code,
        description=description,
        version=version,
        dependences=dependences,
        defaults=defaults,
        crossexpect=crossexpect,
        environment=environment,
    )


def _check_balance(code: str) -> None:
    for marker in (CHECK_TAG, CROSS_TAG):
        opens = len(re.findall(rf"<acctv:{marker}>", code))
        closes = len(re.findall(rf"</acctv:{marker}>", code))
        if opens != closes:
            raise TemplateError(
                f"unbalanced <acctv:{marker}> markers ({opens} open / {closes} close)"
            )
    # nesting check/crosscheck inside each other is not meaningful
    inner = re.findall(
        rf"{re.escape(CHECK_OPEN)}((?:(?!{re.escape(CHECK_CLOSE)}).)*?)"
        rf"{re.escape(CHECK_CLOSE)}",
        code,
        re.DOTALL,
    )
    for body in inner:
        if CROSS_OPEN in body:
            raise TemplateError("crosscheck marker nested inside check marker")
