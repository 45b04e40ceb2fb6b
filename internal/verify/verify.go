// Package verify is the cross-level static verification gate (tprofvet).
//
// Tailored Profiling attributes samples bottom-up: native instruction →
// IR instruction (NativeMap) → task (Tagging Dictionary Log B) → operator
// (Log A). A single optimizer rewrite that forgets a lineage link, a
// backend path that clobbers the reserved tag register, or a block-layout
// inversion that desynchronizes from NativeMap.Inverted silently
// misattributes cycles — the profile still renders, it just lies. Check is
// the artifact gate that encodes the attribution chain's invariants as
// rules over every compilation artifact:
//
//   - IR well-formedness (ir.(*Module).Check: SSA dominance, types, CFG),
//     and every load marked invariant reading a read-only region,
//   - Tagging Dictionary soundness (every instruction resolves to an
//     operator, no orphan or dangling links, lineage journal acyclic and
//     free of uses after removal),
//   - native-code invariants (debug map coverage and provenance, tag
//     register discipline, the tag restore after a shared call, Inverted
//     exactness, control staying inside functions),
//   - partitioned-merge invariants, and
//   - the abstract interpreter's definite violations (internal/verify/absint).
//
// Every rule is the sole catcher of some mutant class of the harness in
// internal/verify/mutate, which pins the table. The package also holds the
// replay checkers of sharded runs, epochs and views, and a go/ast+go/types
// source linter for repository rules (lint.go).
//
// The gate runs in three places: inside the engine after every lowering
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
	"repro/internal/verify/absint"
)

// Diag is one structured diagnostic: which check fired, which abstraction
// level the offending artifact lives on, and a locus precise enough to find
// it (an IR ID, a native instruction index, a task component, or a
// file:line). Every diagnostic is a broken invariant: there is no lesser
// kind, so no caller can drop one by filtering.
type Diag struct {
	Check string     // "checker/rule", e.g. "dict/orphan-instr"
	Level core.Level // abstraction level of the offending artifact
	Locus string     // e.g. "%42", "native@137", "task 7", "a.go:12"
	Msg   string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: [%s] %s: %s", d.Check, d.Level, d.Locus, d.Msg)
}

// Artifact is one compilation state snapshot handed to the gate. The
// engine builds these after pipeline construction (Code nil), after each
// optimizer pass (Code nil), and after emit (Code set); nil fields simply
// disable the rules that need them.
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

	// Pipelines carries the lowering's pipeline metadata for the
	// partitioned-merge rules; nil disables them.
	Pipelines []pipeline.PipelineInfo

	// Mem declares the heap layout and staged-cell invariants for the
	// abstract interpreter and the invariant-load rule; nil disables both.
	Mem *absint.MemModel
}

// Check is the artifact gate: every rule of this package over one
// artifact, in a fixed order — IR well-formedness, invariant-load regions,
// dictionary soundness, native invariants, partitioned-merge invariants —
// and then the abstract interpreter (internal/verify/absint) over the
// emitted code. Each diagnostic is tagged with the artifact's phase. Rules
// whose inputs the artifact lacks (native code before emit, the memory
// model, the pipeline metadata) report nothing.
func Check(a *Artifact) []Diag {
	var out []Diag
	for _, rules := range [...]func(*Artifact) []Diag{irWellFormed, invariantLoads, dictSoundness, nativeInvariants, mergeInvariants, absintViolations} {
		for _, d := range rules(a) {
			if a.Phase != "" {
				d.Msg = d.Msg + " (after " + a.Phase + ")"
			}
			out = append(out, d)
		}
	}
	return out
}

// absintViolations reports the abstract interpreter's definite violations
// as native-level diagnostics.
func absintViolations(a *Artifact) []Diag {
	var out []Diag
	for _, v := range absint.Analyze(a.Code, a.Mem, a.RegisterTagging).Diags {
		out = append(out, Diag{
			Check: v.Check, Level: core.LevelNative,
			Locus: fmt.Sprintf("native@%d", v.Pos), Msg: v.Msg,
		})
	}
	return out
}

// AsError folds diagnostics into a single error (nil when there are
// none), for callers that gate on Check — like the engine's
// VerifyArtifacts mode.
func AsError(ds []Diag) error {
	if len(ds) == 0 {
		return nil
	}
	msgs := make([]string, 0, len(ds))
	for _, d := range ds {
		msgs = append(msgs, d.String())
	}
	return fmt.Errorf("verify: %d invariant violation(s):\n  %s",
		len(ds), strings.Join(msgs, "\n  "))
}
