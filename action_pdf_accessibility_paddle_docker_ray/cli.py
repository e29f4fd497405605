"""CLI driver with the reference's action surface, re-targeted at Ray Data.

Mirrors the reference's four subcommands and argument set
(/root/reference/src/main.py:456-563) — ``config``, ``tag``, ``template``,
``mathml`` — with the same knobs (model choice, zoom ∈ [1, 10], 23
per-class threshold arguments clamped to [0.05, 0.95], process_formula /
process_table booleans) and the same error-code taxonomy
(/root/reference/src/exceptions.py:3-17), re-expressed for a distributed
engine:

- ``tag``:      pages parquet → extracted docs parquet (text + spans +
                template + formulas) — the reference's PDF→tagged-PDF,
                with ``--resume`` running the manifest-checkpointed path.
- ``template``: pages parquet → (url, template_json) parquet with
                ``process_formula`` hardwired off, exactly like
                /root/reference/src/create_template.py:92.
- ``mathml``:   ``.tex``→``.xml`` converts one LaTeX formula (the stub
                stand-in for the formula-recognition model) to annotated
                MathML; parquet→parquet emits the per-url formula table.
- ``config``:   dumps the engine's integration JSON.

Run standalone (``python -m action_pdf_accessibility_paddle_docker_ray.cli ...``); it owns its
Ray session (``ray job submit`` wraps the same entry point on a cluster).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import __version__
from .functions.labels import LAYOUT_CLASS_NAMES, SUPPORTED_MODELS, clamp

# error-code taxonomy (reference exceptions.py:3-17; the full code range
# 10-28 is mapped onto the analogous engine failures.  Codes 21/22 — PDFix
# license activation/authorization — have no analog in a licensing-free
# engine and are deliberately excluded, documented in SURVEY §2.2)
EC_ARG_GENERAL = 10
EC_ARG_ZOOM = 11
EC_ARG_INPUT_PAGES_OUTPUT_JSON = 12   # template: input pages / output json
EC_ARG_INPUT_PAGES_OUTPUT_PAGES = 13  # tag: both sides parquet
EC_ARG_INPUT_OUTPUT_NOT_ALLOWED = 14
EC_ENGINE_INITIALIZE = 20             # ref: PDFix SDK init → Ray session init
EC_ENGINE_RENDER = 23
EC_ENGINE_FAILED_TO_OPEN = 24
EC_ENGINE_FAILED_TO_SAVE = 25
EC_ENGINE_FAILED_TO_TAG = 26          # extraction pipeline failure
EC_ENGINE_FAILED_TO_CREATE_TEMPLATE = 27
EC_ENGINE_NO_TAGS = 28                # template over an input with no docs

# error texts keyed by code, mirroring the reference's integration
# descriptor (/root/reference/config.json "errors" maps; engine-specific
# wording where the PDFix SDK codes don't apply)
ERROR_TEXTS = {
    EC_ARG_GENERAL: "Failed to parse arguments. Please check the usage and try again.",
    EC_ARG_ZOOM: "Zoom level must between 1.0 and 10.0.",
    EC_ARG_INPUT_PAGES_OUTPUT_JSON: "Input file must be pages parquet and output must be a parquet/JSON path.",
    EC_ARG_INPUT_PAGES_OUTPUT_PAGES: "Input and output must be pages parquet paths.",
    EC_ARG_INPUT_OUTPUT_NOT_ALLOWED: "Not allowed input output file combination. Please see --help.",
    EC_ENGINE_INITIALIZE: "Failed to initialize the Ray engine.",
    EC_ENGINE_RENDER: "Failed to decode the formula image (codec/model unavailable).",
    EC_ENGINE_FAILED_TO_OPEN: "Failed to open the input pages table.",
    EC_ENGINE_FAILED_TO_SAVE: "Failed to save the output table.",
    EC_ENGINE_FAILED_TO_TAG: "Failed to run the extraction over the pages table.",
    EC_ENGINE_FAILED_TO_CREATE_TEMPLATE: "Failed to create template JSON.",
    EC_ENGINE_NO_TAGS: "Input pages table produced no documents.",
}


def _is_pages_input(path: str) -> bool:
    """Plausibly a pages source (.parquet file or shard directory).  Only a
    clearly-wrong extension is an ARG error — a missing-but-plausible path
    stays an engine open failure (EC 24), matching the reference's split
    between argument checks and runtime opens."""
    return not path.lower().endswith(
        (".json", ".xml", ".tex", ".pdf", ".txt", ".html", ".jpg", ".jpeg", ".png")
    )

# threshold knob order = class-id order (reference main.py:429-453)
_THRESHOLD_ARGS = [f"threshold_{name}" for name in LAYOUT_CLASS_NAMES]
_LOW_DEFAULT = {"paragraph_title", "formula", "header", "seal", "header_image"}


def str2bool(value) -> bool:
    """/root/reference/src/main.py:25-42."""
    if isinstance(value, bool):
        return value
    if value.lower() in ("yes", "true", "t", "1"):
        return True
    if value.lower() in ("no", "false", "f", "0"):
        return False
    raise ValueError("Boolean value expected.")


def create_threshold_dictionary(args) -> dict[int, float]:
    """class-id → clamped threshold (reference main.py:419-453)."""
    return {
        i: clamp(float(getattr(args, f"threshold_{name}")))
        for i, name in enumerate(LAYOUT_CLASS_NAMES)
    }


def _add_common_args(p: argparse.ArgumentParser, thresholds: bool = True) -> None:
    p.add_argument("--input", "-i", required=True, help="Input pages parquet file/dir.")
    p.add_argument("--output", "-o", required=True, help="Output path.")
    p.add_argument("--model", choices=list(SUPPORTED_MODELS), default="PP-DocLayout-L")
    p.add_argument("--zoom", type=float, default=2.0,
                   help="Zoom level for page rendering (default: 2.0).")
    p.add_argument("--cpus", type=int, default=None, help="num_cpus for ray.init.")
    if thresholds:
        for name in LAYOUT_CLASS_NAMES:
            p.add_argument(
                f"--threshold_{name}", type=float,
                default=0.3 if name in _LOW_DEFAULT else 0.5,
            )


def _common_action_args() -> list[dict]:
    """Shared arg descriptors (model / zoom / process flags / 23 per-class
    thresholds) in the reference descriptor's arg-record shape
    (/root/reference/config.json:40-260: name/desc/type/value[/set])."""
    args: list[dict] = [
        {"name": "input", "desc": "Input pages parquet file or directory",
         "type": "file_path", "ext": "parquet", "value": ""},
        {"name": "output", "desc": "Output parquet directory",
         "type": "file_path", "ext": "parquet", "value": ""},
        {"title": "Paddle Layout Model", "name": "model",
         "desc": "Layout prediction model that the engine should use",
         "type": "string", "value": "PP-DocLayout-L",
         "set": [{"value": m} for m in SUPPORTED_MODELS]},
        {"title": "Rendering Zoom Level", "name": "zoom",
         "desc": "Pages are processed at this render zoom level",
         "type": "float", "value": "2.0"},
        {"title": "Process Formulas", "name": "process_formula",
         "desc": "Run the formula-recognition sub-model",
         "type": "bool", "value": "true"},
        {"title": "Process Tables", "name": "process_table",
         "desc": "Run the table classification + cell-detection sub-models",
         "type": "bool", "value": "true"},
    ]
    for name in LAYOUT_CLASS_NAMES:
        args.append(
            {
                "name": f"threshold_{name}",
                "desc": f"Threshold for {name.replace('_', ' ')}. "
                "Value between 0.0 and 1.0.",
                "type": "float",
                "value": str(0.3 if name in _LOW_DEFAULT else 0.5),
            }
        )
    return args


def _program_line(action: str, args: list[dict]) -> str:
    flags = " ".join(
        f"--{a['name']}=${{{a['name']}}}" if a["name"].startswith("threshold_")
        else f"--{a['name']} \"${{{a['name']}}}\""
        for a in args
        if a["name"] not in ("input", "output")
    )
    return (
        f"python -m action_pdf_accessibility_paddle_docker_ray.cli {action} "
        f'-i "${{input}}" -o "${{output}}" {flags}'
    ).strip()


def integration_config() -> dict:
    """Integration descriptor with the reference's record shape
    (/root/reference/config.json:1-635 via main.py:282-296: name/version +
    one record per action carrying title/name/desc/program/args/errors/
    progress_regex), re-targeted at the Ray engine's parquet actions."""
    errors = {str(code): text for code, text in sorted(ERROR_TEXTS.items())}
    common = _common_action_args()
    tpl_args = [a for a in common if a["name"] != "process_formula"]
    mathml_img_args = [
        {"name": "input", "desc": "Input formula image (JPG/PNG)",
         "type": "file_path", "ext": "jpg", "value": ""},
        {"name": "output", "desc": "Output MathML XML file",
         "type": "file_path", "ext": "xml", "value": ""},
    ]
    actions = [
        {
            "title": "Extract (Ray Data)",
            "name": "graft_extract_tag",
            "desc": "Extracts main content from a pages table [Distributed]",
            "version": __version__,
            "category": "Extraction",
            "local": True,
            "program": _program_line("tag", common),
            "args": common,
            "errors": errors,
            "progress_regex": r"^(?<text>[^:]+):\s+(?<progress>\d{1,3})%",
        },
        {
            "title": "Create Layout Template (Ray Data)",
            "name": "graft_create_layout_template",
            "desc": "Creates the per-url layout template table",
            "version": __version__,
            "category": "Extraction",
            "local": True,
            "program": _program_line("template", tpl_args),
            "args": tpl_args,
            "errors": errors,
            "progress_regex": r"^(?<text>[^:]+):\s+(?<progress>\d{1,3})%",
        },
        {
            "title": "Generate MathML from Image (Ray Data)",
            "name": "graft_generate_formula_mathml_from_image",
            "desc": "Converts one formula image to annotated MathML",
            "version": __version__,
            "category": "Extraction",
            "local": True,
            "program": _program_line("mathml", mathml_img_args),
            "args": mathml_img_args,
            "errors": errors,
            "progress_regex": r"^(?<text>[^:]+):\s+(?<progress>\d{1,3})%",
        },
        {
            "title": "Generate MathML (Ray Data)",
            "name": "graft_generate_formula_mathml",
            "desc": "Emits the per-url formula MathML table",
            "version": __version__,
            "category": "Extraction",
            "local": True,
            "program": _program_line("mathml", common),
            "args": common[:4],
            "errors": errors,
            "progress_regex": r"^(?<text>[^:]+):\s+(?<progress>\d{1,3})%",
        },
    ]
    return {
        "name": "Ray Data Content Extraction",
        "version": __version__,
        "actions": actions,
        "models": list(SUPPORTED_MODELS),
    }


def _init_ray(cpus: Optional[int]) -> None:
    import ray

    if not ray.is_initialized():
        kwargs = dict(address="local", include_dashboard=False, logging_level="ERROR")
        if cpus:
            kwargs["num_cpus"] = cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def run_config(args) -> int:
    payload = json.dumps(integration_config(), indent=2)
    if getattr(args, "output", None):
        with open(args.output, "w") as f:
            f.write(payload)
    else:
        print(payload)
    return 0


def run_tag(args) -> int:
    if args.zoom < 1.0 or args.zoom > 10.0:
        print("Zoom level must between 1.0 and 10.0.", file=sys.stderr)
        return EC_ARG_ZOOM
    if not _is_pages_input(args.input) or args.output.lower().endswith(
        (".json", ".xml", ".tex")
    ):
        # reference EC 13: tag needs pdf→pdf; here pages-parquet→parquet
        print(ERROR_TEXTS[EC_ARG_INPUT_PAGES_OUTPUT_PAGES], file=sys.stderr)
        return EC_ARG_INPUT_PAGES_OUTPUT_PAGES
    try:
        _init_ray(args.cpus)
    except Exception as exc:  # noqa: BLE001 - engine init boundary
        print(f"{ERROR_TEXTS[EC_ENGINE_INITIALIZE]} {exc}", file=sys.stderr)
        return EC_ENGINE_INITIALIZE
    thresholds = create_threshold_dictionary(args)
    try:
        if args.resume:
            from .state.manifest import metrics_report, run_resumable

            summary = run_resumable(
                args.input, args.output, model=args.model, zoom=args.zoom,
                thresholds=thresholds, process_table=args.process_table,
                process_formula=args.process_formula,
            )
            print(json.dumps({"run": summary, "report": metrics_report(args.output)}))
        else:
            from .pipelines.extract import extract_to_parquet

            extract_to_parquet(
                args.input, args.output, model=args.model, zoom=args.zoom,
                thresholds=thresholds, process_table=args.process_table,
                process_formula=args.process_formula,
            )
    except FileNotFoundError as exc:
        print(f"Failed to open input: {exc}", file=sys.stderr)
        return EC_ENGINE_FAILED_TO_OPEN
    except Exception as exc:  # noqa: BLE001 - reference EC 26 analog
        print(f"{ERROR_TEXTS[EC_ENGINE_FAILED_TO_TAG]} {exc}", file=sys.stderr)
        return EC_ENGINE_FAILED_TO_TAG
    return 0


def run_template(args) -> int:
    """process_formula hardwired False (reference create_template.py:92)."""
    if args.zoom < 1.0 or args.zoom > 10.0:
        print("Zoom level must between 1.0 and 10.0.", file=sys.stderr)
        return EC_ARG_ZOOM
    if not _is_pages_input(args.input):
        # reference EC 12: template needs pdf→json; here pages-parquet input
        print(ERROR_TEXTS[EC_ARG_INPUT_PAGES_OUTPUT_JSON], file=sys.stderr)
        return EC_ARG_INPUT_PAGES_OUTPUT_JSON
    try:
        _init_ray(args.cpus)
    except Exception as exc:  # noqa: BLE001 - engine init boundary
        print(f"{ERROR_TEXTS[EC_ENGINE_INITIALIZE]} {exc}", file=sys.stderr)
        return EC_ENGINE_INITIALIZE
    from .pipelines.extract import extract_pipeline

    thresholds = create_threshold_dictionary(args)
    try:
        ds = extract_pipeline(
            args.input, model=args.model, zoom=args.zoom, thresholds=thresholds,
            process_table=args.process_table, process_formula=False,
        )
        ds.select_columns(["url", "template_json"]).write_parquet(args.output)
    except FileNotFoundError as exc:
        print(f"Failed to open input: {exc}", file=sys.stderr)
        return EC_ENGINE_FAILED_TO_OPEN
    except Exception as exc:  # noqa: BLE001 - reference EC 27 analog
        print(f"{ERROR_TEXTS[EC_ENGINE_FAILED_TO_CREATE_TEMPLATE]} {exc}", file=sys.stderr)
        return EC_ENGINE_FAILED_TO_CREATE_TEMPLATE
    import pyarrow.dataset as pads

    try:
        n_out = pads.dataset(args.output).count_rows()
    except FileNotFoundError:
        n_out = 0  # an all-empty write creates no files at all
    if n_out == 0:
        # reference EC 28 analog: nothing to template
        print(ERROR_TEXTS[EC_ENGINE_NO_TAGS], file=sys.stderr)
        return EC_ENGINE_NO_TAGS
    return 0


_JPEG_MAGIC = b"\xff\xd8"
_PNG_MAGIC = b"\x89PNG\r\n\x1a\n"


def _formula_image_to_latex(data: bytes) -> str:
    """Stubbed formula-recognition decode boundary for image-mode mathml
    (reference flow: cv2.imread → PaddleX formula model → LaTeX,
    /root/reference/src/generate_mathml.py:37-78).

    Real raster images need cv2 + the model (absent in this container) —
    NotImplementedError, like the multimodal decode stub.  A 'fake image'
    whose bytes are the LaTeX payload itself exercises the full
    surrounding plumbing deterministically."""
    if data[:2] == _JPEG_MAGIC or data[:8] == _PNG_MAGIC:
        # unconditional: even where cv2 imports, no formula model is wired —
        # falling through to utf-8 decode would die with an uncaught
        # UnicodeDecodeError instead of run_mathml's EC_ENGINE_RENDER
        raise NotImplementedError(
            "raster formula images need cv2 + the PaddleX formula model; "
            "the model is not integrated in this engine"
        )
    return data.decode("utf-8").strip()


def run_mathml(args) -> int:
    from .functions.mathml import add_mathml_metadata, latex_to_mathml

    in_lower = args.input.lower()
    if in_lower.endswith((".jpg", ".jpeg", ".png")) and args.output.lower().endswith(".xml"):
        # image → mathml XML (reference generate_mathml.py:37-78; the
        # decode + formula model are the stubbed boundary)
        try:
            with open(args.input, "rb") as f:
                data = f.read()
        except OSError:
            return EC_ENGINE_FAILED_TO_OPEN
        try:
            latex = _formula_image_to_latex(data)
        except NotImplementedError as exc:
            print(str(exc), file=sys.stderr)
            return EC_ENGINE_RENDER
        mathml = latex_to_mathml(latex)
        if mathml and getattr(args, "annotate", False):
            mathml = add_mathml_metadata(mathml)
        with open(args.output, "w") as f:
            f.write(mathml)
        return 0
    if in_lower.endswith(".tex") and args.output.lower().endswith(".xml"):
        try:
            with open(args.input) as f:
                latex = f.read().strip()
        except OSError:
            return EC_ENGINE_FAILED_TO_OPEN
        # raw MathML, no <semantics> wrapping: the reference defines
        # add_mathml_metadata but never calls it in any flow
        # (/root/reference/src/ai.py:207 — definition only); pass
        # --annotate to opt in to the wrapped form
        mathml = latex_to_mathml(latex)
        if mathml and getattr(args, "annotate", False):
            mathml = add_mathml_metadata(mathml)
        with open(args.output, "w") as f:
            f.write(mathml)
        return 0
    if args.output.lower().endswith((".parquet", "/")) or not args.output.lower().endswith(".xml"):
        _init_ray(args.cpus)
        from .pipelines.extract import extract_pipeline

        try:
            # zoom=1.0: the reference's mathml pdf->pdf mode re-renders
            # formula elements at zoom 1 (/root/reference/src/generate_mathml.py:226)
            ds = extract_pipeline(args.input, zoom=1.0)
            ds.select_columns(["url", "formulas_json"]).write_parquet(args.output)
        except FileNotFoundError as exc:
            print(f"Failed to open input: {exc}", file=sys.stderr)
            return EC_ENGINE_FAILED_TO_OPEN
        return 0
    print("Not allowed input output file combination. Please see --help.", file=sys.stderr)
    return EC_ARG_INPUT_OUTPUT_NOT_ALLOWED


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Ray-Data-native main-content extraction engine "
        "(reference action surface: config / tag / template / mathml)",
    )
    sub = parser.add_subparsers(dest="subparser")

    p_config = sub.add_parser("config", help="Extract config file for integration.")
    p_config.add_argument("--output", "-o", default=None)
    p_config.set_defaults(func=run_config)

    p_tag = sub.add_parser("tag", help="Run extraction over a pages table.")
    _add_common_args(p_tag)
    p_tag.add_argument("--process_formula", type=str2bool, default=True)
    p_tag.add_argument("--process_table", type=str2bool, default=True)
    p_tag.add_argument("--resume", action="store_true",
                       help="Manifest-checkpointed resumable run.")
    p_tag.set_defaults(func=run_tag)

    p_tpl = sub.add_parser("template", help="Create layout template JSON table.")
    _add_common_args(p_tpl)
    p_tpl.add_argument("--process_table", type=str2bool, default=True)
    p_tpl.set_defaults(func=run_template)

    p_ml = sub.add_parser(
        "mathml",
        help="Generate MathML. Modes: .tex -> .xml (single formula), "
        "pages parquet -> formulas parquet.",
    )
    p_ml.add_argument("--input", "-i", required=True)
    p_ml.add_argument("--output", "-o", required=True)
    p_ml.add_argument("--cpus", type=int, default=None)
    p_ml.add_argument("--annotate", action="store_true",
                      help="Wrap output in <semantics> with annotations.")
    p_ml.set_defaults(func=run_mathml)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if not getattr(args, "func", None):
        parser.print_help()
        return EC_ARG_GENERAL
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
