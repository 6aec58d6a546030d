"""Persistent application-server gateway (the paper's future-work path).

Section 2.3 names CGI's defining cost: the web server starts "the CGI
application as a separate process" per request — process creation,
interpreter start-up, and a fresh database connection every time.  The
paper's own Section 7 answer is the server-API model that keeps the
application resident.  This package implements that middle tier in the
FastCGI style: a dispatcher that pre-forks a pool of long-lived worker
processes, each holding warm state (parsed macros, compiled row
templates, pooled connections, a query-result cache), and speaks a small
length-prefixed frame protocol to them over a Unix socket — so a request
costs one dispatch instead of one ``exec``.

The workers live on the web server's host, as the paper's resident
application does.  The tier boundary is the frame protocol
(:mod:`repro.appserver.protocol`), not the socket family under it.

:class:`AppServerDispatcher` implements the
:class:`repro.cgi.gateway.CgiProgram` protocol and mounts in a
:class:`~repro.cgi.gateway.CgiGateway` exactly like the in-process
program or :class:`~repro.cgi.process.SubprocessCgiRunner`, so the whole
HTTP stack above is unchanged.
"""

from repro.appserver.dispatcher import AppServerDispatcher

__all__ = ["AppServerDispatcher"]
