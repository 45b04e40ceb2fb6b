// Package verify is the cross-level static verification suite (tprofvet).
//
// Tailored Profiling attributes samples bottom-up: native instruction →
// IR instruction (NativeMap) → task (Tagging Dictionary Log B) → operator
// (Log A). A single optimizer rewrite that forgets a lineage link, a
// backend path that clobbers the reserved tag register, or a block-layout
// inversion that desynchronizes from NativeMap.Inverted silently
// misattributes cycles — the profile still renders, it just lies. This
// package encodes the attribution chain's invariants as machine-checked
// analyses that run over every compilation artifact:
//
//   - IR well-formedness (ir.(*Module).Check: SSA dominance, types, CFG),
//     and every load marked invariant reading a read-only region,
//   - Tagging Dictionary soundness (every instruction resolves to an
//     operator, lineage journal acyclic, no orphan or dangling links),
//   - native-code invariants (tag register discipline, shared-call tag
//     protocol, Inverted exactness, branch-target sanity),
//
// plus a go/ast+go/types source linter for repository rules (lint.go).
//
// The suite runs in three places: inside the engine after every lowering
// step when Options.VerifyArtifacts is set, in the tprofvet CLI over the
// whole query corpus, and in CI.
package verify

import (
	"fmt"
	"strings"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/pipeline"
)

// Severity ranks a diagnostic.
type Severity uint8

const (
	// Warning marks a suspicious-but-survivable artifact state.
	Warning Severity = iota
	// Error marks a broken invariant: attribution (or execution) is wrong.
	Error
)

func (s Severity) String() string {
	if s == Warning {
		return "warning"
	}
	return "error"
}

// Diag is one structured diagnostic: which check fired, how bad it is,
// which abstraction level the offending artifact lives on, and a locus
// precise enough to find it (an IR ID, a native instruction index, a task
// component, or a file:line).
type Diag struct {
	Check    string // "checker/rule", e.g. "dict/orphan-instr"
	Severity Severity
	Level    core.Level // abstraction level of the offending artifact
	Locus    string     // e.g. "%42", "native@137", "task 7", "a.go:12"
	Msg      string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: %s: [%s] %s: %s", d.Severity, d.Check, d.Level, d.Locus, d.Msg)
}

// Artifact is one compilation state snapshot handed to the checkers. The
// engine builds these after pipeline construction (Code nil), after each
// optimizer pass (Code nil), and after emit (Code set); nil fields simply
// disable the checkers that need them.
type Artifact struct {
	// Phase names the lowering step that just produced this state, e.g.
	// "pipeline", "iropt/cse", "emit". Diagnostics embed it so a failure
	// pinpoints the guilty pass, not just the guilty artifact.
	Phase string

	Module *ir.Module
	Dict   *core.Dictionary
	Code   *codegen.Result // nil before the backend has run

	// RegisterTagging mirrors the engine option: the tag-register checks
	// only apply when the backend actually reserved isa.TagReg.
	RegisterTagging bool

	// Pipelines and Layout carry the lowering's pipeline metadata for the
	// partitioned-merge checks (MergeInvariants); nil disables them.
	Pipelines []pipeline.PipelineInfo
	Layout    *pipeline.Layout

	// Mem declares the heap layout and staged-cell invariants for the
	// abstract interpreter (internal/verify/absint); nil disables it.
	Mem *MemModel
}

// Checker is one analysis pass over an artifact.
type Checker interface {
	// Name is the stable checker identifier (the prefix of Diag.Check).
	Name() string
	// Check inspects the artifact and returns its diagnostics. A checker
	// whose inputs are absent (e.g. native checks before emit) returns nil.
	Check(a *Artifact) []Diag
}

// Suite is the pass manager: an ordered list of checkers run over each
// artifact. Order matters only for readability of output — checkers are
// independent.
type Suite struct {
	Checkers []Checker
}

// NewSuite returns a suite over the given checkers.
func NewSuite(cs ...Checker) *Suite { return &Suite{Checkers: cs} }

// ArtifactSuite returns the standard artifact battery: IR well-formedness,
// invariant-load regions, dictionary soundness, native invariants,
// partitioned-merge invariants.
// (The source linter is not an artifact checker; see Lint.)
func ArtifactSuite() *Suite {
	return NewSuite(IRWellFormed{}, InvariantLoads{}, DictSoundness{}, NativeInvariants{}, MergeInvariants{})
}

// Run executes every checker and returns all diagnostics, tagged with the
// artifact's phase.
func (s *Suite) Run(a *Artifact) []Diag {
	var out []Diag
	for _, c := range s.Checkers {
		for _, d := range c.Check(a) {
			if a.Phase != "" {
				d.Msg = d.Msg + " (after " + a.Phase + ")"
			}
			out = append(out, d)
		}
	}
	return out
}

// Errs filters ds down to Error severity.
func Errs(ds []Diag) []Diag {
	var out []Diag
	for _, d := range ds {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// AsError folds diagnostics into a single error (nil when no errors are
// present), for callers that gate on the suite — like the engine's
// VerifyArtifacts mode.
func AsError(ds []Diag) error {
	errs := Errs(ds)
	if len(errs) == 0 {
		return nil
	}
	msgs := make([]string, 0, len(errs))
	for _, d := range errs {
		msgs = append(msgs, d.String())
	}
	return fmt.Errorf("verify: %d invariant violation(s):\n  %s",
		len(errs), strings.Join(msgs, "\n  "))
}
