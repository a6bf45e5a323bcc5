package rprism

import (
	"repro/internal/impact"
	"repro/internal/protocol"
)

// The paper's §4 lists further view-based dynamic analyses its trace
// abstraction enables: object protocol inference, property checking
// (typestate), and impact analysis. This file exposes our implementations
// of those extensions.

// ProtocolModel is an inferred per-class object protocol: the observed
// method-order transitions over all instances in a trace.
type ProtocolModel = protocol.Model

// ProtocolDecl declares a typestate property: the permitted method-order
// transitions for a class.
type ProtocolDecl = protocol.Decl

// ProtocolViolation is a typestate breach observed in a trace.
type ProtocolViolation = protocol.Violation

// ProtocolChange is one transition added or removed between two inferred
// protocols (protocol drift across versions).
type ProtocolChange = protocol.Change

// DiffProtocols reports transitions present in exactly one of two
// inferred protocols.
func DiffProtocols(old, new *ProtocolModel) []ProtocolChange { return protocol.DiffModels(old, new) }

// ImpactSurface ranks the methods, classes, objects, and threads touched
// by the behavioural differences of a trace pair.
type ImpactSurface = impact.Surface
