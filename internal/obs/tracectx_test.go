package obs

import (
	"context"
	"net/http/httptest"
	"testing"
)

func TestMintTraceShape(t *testing.T) {
	tc := MintTrace()
	if !tc.Valid() {
		t.Fatalf("minted context invalid: %+v", tc)
	}
	if len(tc.TraceID) != 32 || len(tc.SpanID) != 16 {
		t.Fatalf("trace id %q span id %q: want 32/16 hex chars", tc.TraceID, tc.SpanID)
	}
	if tc2 := MintTrace(); tc2.TraceID == tc.TraceID {
		t.Fatalf("two mints produced the same trace id %q", tc.TraceID)
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tc := MintTrace()
	got, ok := ParseTraceContext(tc.String())
	if !ok || got != tc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, tc)
	}
}

func TestChildKeepsTraceID(t *testing.T) {
	tc := MintTrace()
	child := tc.Child()
	if child.TraceID != tc.TraceID {
		t.Errorf("child trace id %q != parent %q", child.TraceID, tc.TraceID)
	}
	if child.SpanID == tc.SpanID {
		t.Errorf("child span id %q did not change", child.SpanID)
	}
	if !child.Valid() {
		t.Errorf("child invalid: %+v", child)
	}
}

func TestParseTraceContextRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		"",
		"nodash",
		"short-short",
		"0123456789abcdef0123456789abcdef", // no span id
		"0123456789abcdef0123456789abcdeX-0123456789abcdef",   // non-hex trace
		"0123456789ABCDEF0123456789abcdef-0123456789abcdef",   // uppercase
		"0123456789abcdef0123456789abcdef-0123456789abcde",    // 15-char span
		"0123456789abcdef0123456789abcdef-0123456789abcdef-x", // trailing junk
	} {
		if tc, ok := ParseTraceContext(s); ok {
			t.Errorf("ParseTraceContext(%q) accepted: %+v", s, tc)
		}
	}
}

func TestTraceContextViaContext(t *testing.T) {
	if _, ok := TraceFrom(context.Background()); ok {
		t.Fatal("untraced context reported a trace")
	}
	tc := MintTrace()
	ctx := WithTrace(context.Background(), tc)
	got, ok := TraceFrom(ctx)
	if !ok || got != tc {
		t.Fatalf("TraceFrom = %+v ok=%v, want %+v", got, ok, tc)
	}
}

func TestFilterByTraceID(t *testing.T) {
	id := "0123456789abcdef0123456789abcdef"
	spans := []Span{
		{Name: "a", Args: []Arg{A(TraceArg, id)}},
		{Name: "b", Args: []Arg{A(TraceArg, "ffffffffffffffffffffffffffffffff")}},
		{Name: "c"}, // untagged
		{Name: "d", Args: []Arg{A("batch", 3), A(TraceArg, id)}},
		{Name: "e", Args: []Arg{A(TraceArg, 42)}}, // non-string value
	}
	got := FilterByTraceID(spans, id)
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "d" {
		t.Fatalf("filtered %v, want spans a and d", got)
	}
}

func TestValidTraceID(t *testing.T) {
	if err := ValidTraceID(MintTrace().TraceID); err != nil {
		t.Errorf("minted trace id rejected: %v", err)
	}
	for _, bad := range []string{"", "xyz", "0123456789abcdef"} {
		if err := ValidTraceID(bad); err == nil {
			t.Errorf("ValidTraceID(%q) accepted", bad)
		}
	}
}

// TestAdoptTrace: an edge continues a well-formed caller trace under its own
// span ID, mints one otherwise, and stamps the response with what it uses.
func TestAdoptTrace(t *testing.T) {
	caller := MintTrace()
	for _, tc := range []struct {
		name, header string
		wantTraceID  string // "" = any freshly minted one
	}{
		{"forwarded", caller.String(), caller.TraceID},
		{"absent", "", ""},
		{"malformed", "not-a-trace", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest("POST", "/v1/infer", nil)
			if tc.header != "" {
				r.Header.Set(TraceHeader, tc.header)
			}
			w := httptest.NewRecorder()
			got := AdoptTrace(w, r)
			if !got.Valid() || got.SpanID == caller.SpanID {
				t.Fatalf("adopted %+v from %+v: want a valid context with its own span", got, caller)
			}
			if tc.wantTraceID != "" && got.TraceID != tc.wantTraceID {
				t.Errorf("trace id %s, want the caller's %s", got.TraceID, tc.wantTraceID)
			}
			if tc.wantTraceID == "" && got.TraceID == caller.TraceID {
				t.Error("minted trace reuses another trace's id")
			}
			if h := w.Header().Get(TraceHeader); h != got.String() {
				t.Errorf("response stamped %q, want %q", h, got.String())
			}
		})
	}
}
