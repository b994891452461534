"""JSON Schemas for the --json output of every CLI command.

These are the published machine-readable contracts: tests validate live CLI
output against them, and downstream tooling can fetch them via schema_for.
"""

from __future__ import annotations


def _record(properties: dict) -> dict:
    """An object with exactly these properties, each required, in this order."""
    return {
        "type": "object",
        "required": list(properties),
        "properties": properties,
        "additionalProperties": False,
    }


_NAT = {"type": "integer", "minimum": 0}
_NULLABLE_NAT = {"oneOf": [{"type": "null"}, _NAT]}
_WORLD_LIST = {"type": "array", "items": _NAT}
_VALUATION = {"type": "object", "additionalProperties": _WORLD_LIST}
_NULLABLE_VALUATION = {"oneOf": [{"type": "null"}, _VALUATION]}

_FRAME = _record({
    "worlds": _NAT,
    "edges": {
        "type": "array",
        "items": {
            "type": "array",
            "items": _NAT,
            "minItems": 2,
            "maxItems": 2,
        },
    },
})

SCHEMAS: dict[str, dict] = {
    "eval": _record({
        "formula": {"type": "string"},
        "worlds": _WORLD_LIST,
        "holds_globally": {"type": "boolean"},
    }),
    "check-valid": _record({
        "statement": {"type": "string"},
        "verdict": {"enum": ["valid", "countermodel", "unknown"]},
        "valuation": _NULLABLE_VALUATION,
        "valuations_tried": _NAT,
        "exhaustive": {"type": "boolean"},
    }),
    "lemma": _record({
        "n": {"type": "integer", "minimum": 1},
        "worlds": {"type": "integer", "minimum": 3},
        "reflexive_points": _WORLD_LIST,
        "valuation": _VALUATION,
        "fails_at_zero": {"type": "boolean"},
        "global_next": {"type": "boolean"},
        "s_global": {
            "type": "object",
            "additionalProperties": {"type": "boolean"},
        },
        "claim_table": {
            "type": "object",
            "additionalProperties": _WORLD_LIST,
        },
        "valid": {"type": "boolean"},
    }),
    "chains": _record({
        "size": _NAT,
        "count": {"type": "integer", "minimum": 1},
        "frames": {"type": "array", "items": _FRAME},
    }),
    "transitivity": _record({
        "degree": _NULLABLE_NAT,
        "max_n": _NAT,
    }),
    "fixpoint": _record({
        "index": _NAT,
        "fixpoint": _WORLD_LIST,
        "orbit": {"type": "array", "items": _WORLD_LIST, "minItems": 1},
    }),
    "consequence": _record({
        "holds": {"type": "boolean"},
        "complete": {"type": "boolean"},
        "frame_index": _NULLABLE_NAT,
        "valuation": _NULLABLE_VALUATION,
        "failure_world": _NULLABLE_NAT,
        "assignments": _NAT,
    }),
    "stabilize": _record({
        "index": _NULLABLE_NAT,
        "max_n": _NAT,
    }),
}


def schema_for(command: str) -> dict:
    return SCHEMAS[command]
