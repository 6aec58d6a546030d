"""HTTP substrate: URLs, messages, router, socket server/client,
in-process transport.  See Figure 1 of the paper and DESIGN.md."""

from repro.http.accesslog import AccessLog, LogEntry, parse_line
from repro.http.async_server import AsyncHttpServer
from repro.http.client import HttpClient
from repro.http.headers import Headers
from repro.http.inprocess import InProcessTransport, Transport
from repro.http.message import HttpRequest, HttpResponse, html_response
from repro.http.persistent import PersistentHttpClient
from repro.http.router import CGI_PREFIX, Router
from repro.http.status import reason_for
from repro.http.urls import Url, join, normalize_path

__all__ = [
    "AccessLog",
    "AsyncHttpServer",
    "CGI_PREFIX",
    "LogEntry",
    "parse_line",
    "Headers",
    "HttpClient",
    "HttpRequest",
    "HttpResponse",
    "InProcessTransport",
    "PersistentHttpClient",
    "Router",
    "Transport",
    "Url",
    "html_response",
    "join",
    "normalize_path",
    "reason_for",
]
