// Package verify is the IR verifier subsystem: MLIR-style invariant checking
// for the two IRs of the stack. verify.Module audits relay well-formedness
// (bound variables, checked types consistent with the op registry, BYOC
// region structure, the QNN quantization invariant) and verify.NeuronModel
// audits the tensor-oriented Neuron IR (operand indices, per-operation arity,
// topological order, the §3.3 every-quantized-operand-has-params invariant,
// execution-plan device coverage).
//
// Verifiers return structured diagnostics rather than a bare error so that
// callers — the verify-after-each-pass instrumentation in internal/passes,
// the frontends, and the npc -verify/-lint driver modes — can report the
// severity, invariant class, offending node and pass provenance of every
// finding at once.
//
// The package sits below internal/passes and internal/nir in the dependency
// order (it imports only relay, neuron and soc), so both the pass pipeline
// and the BYOC flow can verify their outputs without an import cycle.
package verify

import (
	"fmt"
	"strings"
)

// Severity ranks a diagnostic.
type Severity int

const (
	// SevWarning marks a suspicious but executable construct.
	SevWarning Severity = iota
	// SevError marks a broken invariant: the module must not proceed to
	// codegen or execution.
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Diagnostic is one verifier finding.
type Diagnostic struct {
	Sev Severity
	// Check names the invariant class, e.g. unbound-var or op-arity.
	Check string
	// Where locates the offending node: function name plus a pretty-printed
	// one-line context of the expression or operation.
	Where string
	// Pass records provenance when the verifier ran as pass instrumentation
	// ("" when the module did not come out of a named pass).
	Pass string
	Msg  string
}

func (d Diagnostic) String() string {
	var b strings.Builder
	b.WriteString(d.Sev.String())
	b.WriteString(" [")
	b.WriteString(d.Check)
	b.WriteString("]")
	if d.Pass != "" {
		fmt.Fprintf(&b, " (after %s)", d.Pass)
	}
	if d.Where != "" {
		b.WriteString(" at ")
		b.WriteString(d.Where)
	}
	b.WriteString(": ")
	b.WriteString(d.Msg)
	return b.String()
}

// Result collects the diagnostics of one verifier run.
type Result struct {
	Diags []Diagnostic
}

func (r *Result) add(sev Severity, check, where, format string, args ...interface{}) {
	r.Diags = append(r.Diags, Diagnostic{
		Sev:   sev,
		Check: check,
		Where: where,
		Msg:   fmt.Sprintf(format, args...),
	})
}

func (r *Result) Errorf(check, where, format string, args ...interface{}) {
	r.add(SevError, check, where, format, args...)
}

func (r *Result) Warnf(check, where, format string, args ...interface{}) {
	r.add(SevWarning, check, where, format, args...)
}

// Merge appends another result's diagnostics.
func (r *Result) Merge(o *Result) {
	if o != nil {
		r.Diags = append(r.Diags, o.Diags...)
	}
}

// Errors returns the error-severity diagnostics.
func (r *Result) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Sev == SevError {
			out = append(out, d)
		}
	}
	return out
}

// OK reports whether no error-severity diagnostic was recorded.
func (r *Result) OK() bool { return len(r.Errors()) == 0 }

// Has reports whether any diagnostic of the given invariant class was
// recorded; the mutation tests assert on it.
func (r *Result) Has(check string) bool {
	for _, d := range r.Diags {
		if d.Check == check {
			return true
		}
	}
	return false
}

// Err converts the result into an error: nil when OK, otherwise an *Error
// wrapping every diagnostic.
func (r *Result) Err() error {
	if r.OK() {
		return nil
	}
	return &Error{Diags: r.Diags}
}

// Error is the error form of a failed verification; it renders every
// diagnostic, errors first.
type Error struct {
	Diags []Diagnostic
}

func (e *Error) Error() string {
	var errs, warns []string
	for _, d := range e.Diags {
		if d.Sev == SevError {
			errs = append(errs, d.String())
		} else {
			warns = append(warns, d.String())
		}
	}
	lines := append(errs, warns...)
	if len(lines) == 1 {
		return "verify: " + lines[0]
	}
	return fmt.Sprintf("verify: %d invariant violations:\n  %s",
		len(errs), strings.Join(lines, "\n  "))
}
