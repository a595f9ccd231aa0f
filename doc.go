// Package minos is a from-scratch Go reproduction of "The Multimedia
// Object Presentation Manager of MINOS: A Symmetric Approach"
// (Christodoulakis, Ho, Theodoridou; SIGMOD 1986).
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory); cmd/ holds the executables, examples/ the runnable examples,
// and bench_test.go in this package regenerates every figure and
// measurable claim of the paper (see EXPERIMENTS.md).
//
// # Wire protocol opcodes
//
// The workstation/server protocol (internal/wire) is versioned by the
// HELLO handshake, which must be the first frame on every connection: v2
// (the floor) is the correlated mux (many in-flight calls on one
// connection), v3 adds credit-based server-push streams. A connection whose
// first frame is not a HELLO negotiating v2 or later gets one error
// response and is closed. Every request starts with a one-byte opcode;
// retired opcodes answer "unknown op" and are never reused:
//
//	op  name              since    meaning
//	 1  OpQuery           retired  (was the terms-only query; use 17)
//	 2  OpDescriptor      v2       fetch an object's presentation descriptor
//	 3  OpReadPiece       v2       read (offset, length) of the archive
//	 4  OpMiniature       retired  (was one miniature; use 11)
//	 5  OpList            v2       list the archive's object ids
//	 6  OpMode            retired  (was one driving mode; use 11)
//	 7  OpImageView       v2       server-side image zoom/clip
//	 8  OpVoicePreview    v2       voice preview (page-sized prefix;
//	                               deprecated by OpVoiceStream)
//	 9  OpStats           v2       server statistics snapshot (tagged)
//	10  OpHello           v2       version negotiation (the ack carries the
//	                               cluster map of a fleet member)
//	11  OpMiniatures      v2       batched miniatures, one frame per id
//	12  OpClusterMap      v2       epoch-checked cluster-map fetch
//	13  OpVoiceStream     v3       open a voice PCM server-push stream
//	14  OpMiniatureStream v3       open a progressive miniature stream
//	15  OpStreamCredit    v3       grant flow-control credit to a stream
//	16  OpStreamCancel    v3       cancel an open stream
//	17  OpQueryPlanned    v3       planned content query (AND terms +
//	                               kind/date predicates) → sorted ids
//
// Stream frame layout, credit rules and failover-resume semantics are
// specified in DESIGN.md §10; the planned-query grammar, segment format
// and planner cost model in DESIGN.md §12.
//
// # Gateway HTTP endpoints
//
// cmd/minos-gateway terminates web browse sessions over HTTP, mapping each
// onto a workstation session served by a pooled backend (a single server
// or a routed fleet — the pool is []workstation.Backend, so the choice is
// invisible above the seam):
//
//	POST   /session                          open a session → {"session":id}
//	DELETE /session/{sid}                    close the session (204)
//	POST   /session/{sid}/query?q=terms      content query → {"hits":n}
//	GET    /session/{sid}/query?q=query      planned query (terms plus
//	                                         kind:/after:/before:) → {"hits":n}
//	POST   /session/{sid}/step?dir=next|prev browse step → step event JSON
//	POST   /session/{sid}/open?obj=N         open an object → opened event
//	POST   /session/{sid}/progressive?obj=N  progressive miniature passes
//	GET    /session/{sid}/mini/{obj}.png     miniature as PNG (cached encode)
//	GET    /session/{sid}/view.png           the session screen as PNG
//	GET    /session/{sid}/ws                 WebSocket push (steps + PNGs)
//	GET    /session/{sid}/events             SSE fallback for the push feed
//	GET    /metrics                          gateway counters + tagged
//	                                         server/cluster statistics
//
// Busy backends and the session cap answer 503 with Retry-After; gateway
// architecture and the Backend contract are specified in DESIGN.md §11.
package minos
