package dag

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The text format is line-oriented:
//
//	# comment
//	nodes <n>
//	label <id> <text>
//	edge <u> <v>
//
// Edges may appear in any order. Unknown directives are an error.

// WriteText serializes g in the line-oriented text format.
func (g *DAG) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "nodes %d\n", g.N())
	for v := 0; v < g.N(); v++ {
		if g.labels[v] != "" {
			fmt.Fprintf(bw, "label %d %s\n", v, g.labels[v])
		}
	}
	for v := 0; v < g.N(); v++ {
		for _, w2 := range g.SortedSuccs(NodeID(v)) {
			fmt.Fprintf(bw, "edge %d %d\n", v, w2)
		}
	}
	return bw.Flush()
}

// ReadText parses the line-oriented text format produced by WriteText.
func ReadText(r io.Reader) (*DAG, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var g *DAG
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "nodes":
			if g != nil {
				return nil, fmt.Errorf("dag: line %d: duplicate nodes directive", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("dag: line %d: nodes wants 1 arg", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("dag: line %d: bad node count %q", lineNo, fields[1])
			}
			g = New(n)
		case "label":
			if g == nil {
				return nil, fmt.Errorf("dag: line %d: label before nodes", lineNo)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("dag: line %d: label wants 2 args", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 0 || id >= g.N() {
				return nil, fmt.Errorf("dag: line %d: bad label node %q", lineNo, fields[1])
			}
			g.labels[id] = strings.Join(fields[2:], " ")
		case "edge":
			if g == nil {
				return nil, fmt.Errorf("dag: line %d: edge before nodes", lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("dag: line %d: edge wants 2 args", lineNo)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || u < 0 || v < 0 || u >= g.N() || v >= g.N() {
				return nil, fmt.Errorf("dag: line %d: bad edge %q", lineNo, line)
			}
			if u == v {
				return nil, fmt.Errorf("dag: line %d: self-loop %d", lineNo, u)
			}
			g.AddEdge(NodeID(u), NodeID(v))
		default:
			return nil, fmt.Errorf("dag: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("dag: missing nodes directive")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// jsonDAG is the JSON wire form.
type jsonDAG struct {
	Nodes  int            `json:"nodes"`
	Edges  [][2]int       `json:"edges"`
	Labels map[string]int `json:"-"`
	Names  []string       `json:"labels,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (g *DAG) MarshalJSON() ([]byte, error) {
	jd := jsonDAG{Nodes: g.N()}
	for v := 0; v < g.N(); v++ {
		for _, w := range g.SortedSuccs(NodeID(v)) {
			jd.Edges = append(jd.Edges, [2]int{v, int(w)})
		}
	}
	hasLabels := false
	for _, l := range g.labels {
		if l != "" {
			hasLabels = true
			break
		}
	}
	if hasLabels {
		jd.Names = append([]string(nil), g.labels...)
	}
	return json.Marshal(jd)
}

// UnmarshalJSON implements json.Unmarshaler.
func (g *DAG) UnmarshalJSON(data []byte) error { return g.decodeJSON(data, 0) }

// DecodeJSON parses the JSON wire form like UnmarshalJSON, in one pass,
// but refuses a graph that declares more than maxNodes nodes before
// allocating it (maxNodes <= 0 means no limit): a tiny body declaring
// two billion nodes allocates nothing.
func DecodeJSON(data []byte, maxNodes int) (*DAG, error) {
	g := new(DAG)
	if err := g.decodeJSON(data, maxNodes); err != nil {
		return nil, err
	}
	return g, nil
}

func (g *DAG) decodeJSON(data []byte, maxNodes int) error {
	var jd jsonDAG
	if err := json.Unmarshal(data, &jd); err != nil {
		return err
	}
	if jd.Nodes < 0 {
		return fmt.Errorf("dag: negative node count %d", jd.Nodes)
	}
	if maxNodes > 0 && jd.Nodes > maxNodes {
		return fmt.Errorf("dag: instance has %d nodes, limit %d", jd.Nodes, maxNodes)
	}
	*g = *New(jd.Nodes)
	for _, e := range jd.Edges {
		if e[0] < 0 || e[1] < 0 || e[0] >= jd.Nodes || e[1] >= jd.Nodes || e[0] == e[1] {
			return fmt.Errorf("dag: bad edge %v", e)
		}
		g.AddEdge(NodeID(e[0]), NodeID(e[1]))
	}
	if jd.Names != nil {
		if len(jd.Names) != jd.Nodes {
			return fmt.Errorf("dag: labels length %d != nodes %d", len(jd.Names), jd.Nodes)
		}
		copy(g.labels, jd.Names)
	}
	return g.Validate()
}

// WriteDOT emits the graph in Graphviz DOT format for visualization.
func (g *DAG) WriteDOT(w io.Writer, name string) error {
	bw := bufio.NewWriter(w)
	if name == "" {
		name = "dag"
	}
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=TB;\n", name)
	for v := 0; v < g.N(); v++ {
		attrs := ""
		if g.labels[v] != "" {
			attrs = fmt.Sprintf(" [label=%q]", fmt.Sprintf("%d:%s", v, g.labels[v]))
		}
		fmt.Fprintf(bw, "  n%d%s;\n", v, attrs)
	}
	// Deterministic edge order.
	type edge struct{ u, v int }
	var edges []edge
	for u := 0; u < g.N(); u++ {
		for _, v := range g.succs[u] {
			edges = append(edges, edge{u, int(v)})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	for _, e := range edges {
		fmt.Fprintf(bw, "  n%d -> n%d;\n", e.u, e.v)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
