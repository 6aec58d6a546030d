"""HTML substrate: entities, tokenizer, DOM-lite, forms, rendering.

The client-side half of the Web described in Section 2 of the paper:
markup parsing with period-browser leniency, the HTML 2.0 fill-in form
model (the paper's input-variable mechanism of Section 2.2), a text-mode
page renderer used to regenerate the screenshot figures, and a small
generator for the baseline gateways.

The names below are imported on first use (PEP 562): a serving process
needs only :mod:`repro.html.entities`, and ``from repro.html import X``
still works for every one of them.
"""

from importlib import import_module

_EXPORTS = {
    "repro.html.builder": ("HtmlWriter", "attributes", "element", "page",
                           "text"),
    "repro.html.dom": ("Document", "Element", "TextNode"),
    "repro.html.entities": ("escape_html", "unescape_html"),
    "repro.html.forms": ("CheckboxControl", "Form", "FormError",
                         "HiddenControl", "Option", "RadioControl",
                         "ResetControl", "SelectControl", "SubmitControl",
                         "TextAreaControl", "TextControl", "extract_forms"),
    "repro.html.parser": ("parse_html",),
    "repro.html.render": ("render_markup", "render_text"),
    "repro.html.tokenizer": ("tokenize",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value

