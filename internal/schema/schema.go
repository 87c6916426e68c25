// Package schema defines the structure of event details classes.
//
// In the paper, the structure of each event class is specified by an XML
// Schema (XSD) installed in the event catalog; privacy policies then
// select subsets of the schema's fields. Here schemas are first-class Go
// values with typed, documented fields, a sensitivity label per field,
// and an XML export in the spirit of the paper's XSD artifacts.
package schema

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/event"
)

// FieldType enumerates the value syntaxes a detail field can take.
type FieldType int

const (
	// String accepts any value.
	String FieldType = iota
	// Int accepts a base-10 integer.
	Int
	// Float accepts a decimal number.
	Float
	// Bool accepts "true" or "false".
	Bool
	// Date accepts an ISO date (2006-01-02).
	Date
	// DateTime accepts an RFC 3339 timestamp.
	DateTime
	// Code accepts one value out of the field's enumerated Codes.
	Code
)

var fieldTypeNames = map[FieldType]string{
	String:   "string",
	Int:      "int",
	Float:    "float",
	Bool:     "bool",
	Date:     "date",
	DateTime: "dateTime",
	Code:     "code",
}

// String returns the lowercase name of the field type.
func (t FieldType) String() string {
	if s, ok := fieldTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("FieldType(%d)", int(t))
}

// ParseFieldType resolves a type name produced by FieldType.String.
func ParseFieldType(s string) (FieldType, error) {
	for t, name := range fieldTypeNames {
		if name == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("schema: unknown field type %q", s)
}

// Sensitivity classifies how delicate a field's content is. It guides
// policy elicitation (the tool highlights sensitive fields) and the
// exposure metrics of the benchmark harness; it is not itself an access
// control decision — policies are.
type Sensitivity int

const (
	// Ordinary data: neither identifying nor sensitive.
	Ordinary Sensitivity = iota
	// Identifying data: identifies the data subject (name, tax code).
	Identifying
	// Sensitive data in the sense of the privacy code: health status,
	// test results, psychological reports.
	Sensitive
)

var sensitivityNames = map[Sensitivity]string{
	Ordinary:    "ordinary",
	Identifying: "identifying",
	Sensitive:   "sensitive",
}

// String returns the lowercase name of the sensitivity class.
func (s Sensitivity) String() string {
	if n, ok := sensitivityNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Sensitivity(%d)", int(s))
}

// ParseSensitivity resolves a name produced by Sensitivity.String.
func ParseSensitivity(s string) (Sensitivity, error) {
	for v, name := range sensitivityNames {
		if name == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("schema: unknown sensitivity %q", s)
}

// Field describes one field of an event details class.
type Field struct {
	// Name is the field identifier used in details and policies.
	Name event.FieldName
	// Type constrains the value syntax.
	Type FieldType
	// Required fields must be present and non-empty in a full detail
	// message as produced by the source (enforcement may later blank them
	// for specific consumers).
	Required bool
	// Sensitivity classifies the field's content.
	Sensitivity Sensitivity
	// Doc is the human-readable description shown by the elicitation tool.
	Doc string
	// Codes enumerates the admissible values for Code-typed fields.
	Codes []string
}

// checkValue validates a single value against the field's type.
func (f *Field) checkValue(v string) error {
	switch f.Type {
	case String:
		return nil
	case Int:
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			return fmt.Errorf("schema: field %s: %q is not an integer", f.Name, v)
		}
	case Float:
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			return fmt.Errorf("schema: field %s: %q is not a number", f.Name, v)
		}
	case Bool:
		if v != "true" && v != "false" {
			return fmt.Errorf("schema: field %s: %q is not a boolean", f.Name, v)
		}
	case Date:
		if _, err := time.Parse("2006-01-02", v); err != nil {
			return fmt.Errorf("schema: field %s: %q is not a date", f.Name, v)
		}
	case DateTime:
		if _, err := time.Parse(time.RFC3339, v); err != nil {
			return fmt.Errorf("schema: field %s: %q is not a timestamp", f.Name, v)
		}
	case Code:
		for _, c := range f.Codes {
			if v == c {
				return nil
			}
		}
		return fmt.Errorf("schema: field %s: %q is not one of %s", f.Name, v, strings.Join(f.Codes, "|"))
	default:
		return fmt.Errorf("schema: field %s has invalid type %v", f.Name, f.Type)
	}
	return nil
}

// Schema is the structure declaration of an event details class: the
// ordered list of fields e = {f1, ..., fk} of the paper's event model.
type Schema struct {
	class   event.ClassID
	version int
	doc     string
	fields  []Field
	byName  map[event.FieldName]int
}

// New builds a schema for the given class. Field names must be unique and
// non-empty; Code fields must enumerate at least one admissible value.
func New(class event.ClassID, version int, doc string, fields ...Field) (*Schema, error) {
	if err := class.Validate(); err != nil {
		return nil, err
	}
	if version < 1 {
		return nil, fmt.Errorf("schema: class %s: version %d < 1", class, version)
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("schema: class %s has no fields", class)
	}
	s := &Schema{
		class:   class,
		version: version,
		doc:     doc,
		fields:  make([]Field, len(fields)),
		byName:  make(map[event.FieldName]int, len(fields)),
	}
	copy(s.fields, fields)
	for i, f := range s.fields {
		if f.Name == "" {
			return nil, fmt.Errorf("schema: class %s: field %d has empty name", class, i)
		}
		if _, dup := s.byName[f.Name]; dup {
			return nil, fmt.Errorf("schema: class %s: duplicate field %s", class, f.Name)
		}
		if f.Type == Code && len(f.Codes) == 0 {
			return nil, fmt.Errorf("schema: class %s: code field %s has no codes", class, f.Name)
		}
		if f.Type != Code && len(f.Codes) > 0 {
			return nil, fmt.Errorf("schema: class %s: non-code field %s enumerates codes", class, f.Name)
		}
		s.byName[f.Name] = i
	}
	return s, nil
}

// MustNew is New that panics on error, for statically known schemas.
func MustNew(class event.ClassID, version int, doc string, fields ...Field) *Schema {
	s, err := New(class, version, doc, fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Class returns the event class this schema describes.
func (s *Schema) Class() event.ClassID { return s.class }

// Version returns the schema version (monotonically increasing per class).
func (s *Schema) Version() int { return s.version }

// Doc returns the human-readable description of the class.
func (s *Schema) Doc() string { return s.doc }

// Fields returns a copy of the field declarations in declaration order.
func (s *Schema) Fields() []Field {
	out := make([]Field, len(s.fields))
	copy(out, s.fields)
	return out
}

// Has reports whether the schema declares the named field.
func (s *Schema) Has(name event.FieldName) bool {
	_, ok := s.byName[name]
	return ok
}

// FieldNames returns all field names in declaration order.
func (s *Schema) FieldNames() []event.FieldName {
	out := make([]event.FieldName, len(s.fields))
	for i, f := range s.fields {
		out[i] = f.Name
	}
	return out
}

// FieldsWith returns the names of the fields with the given sensitivity,
// in declaration order.
func (s *Schema) FieldsWith(sens Sensitivity) []event.FieldName {
	var out []event.FieldName
	for _, f := range s.fields {
		if f.Sensitivity == sens {
			out = append(out, f.Name)
		}
	}
	return out
}

// CheckFields verifies that every name in names is declared by the
// schema. Policy elicitation uses it to reject field sets that mention
// unknown fields.
func (s *Schema) CheckFields(names []event.FieldName) error {
	for _, n := range names {
		if !s.Has(n) {
			return fmt.Errorf("schema: class %s declares no field %s", s.class, n)
		}
	}
	return nil
}

// Validate checks a full detail message as produced by the source:
// the class must match, every populated field must be declared and typed
// correctly, and every required field must be present and non-empty.
func (s *Schema) Validate(d *event.Detail) error {
	if err := s.validateValues(d); err != nil {
		return err
	}
	for _, f := range s.fields {
		if !f.Required {
			continue
		}
		if v, ok := d.Fields[f.Name]; !ok || v == "" {
			return fmt.Errorf("schema: class %s: required field %s missing", s.class, f.Name)
		}
	}
	return nil
}

func (s *Schema) validateValues(d *event.Detail) error {
	if d == nil {
		return errors.New("schema: nil detail")
	}
	if d.Class != s.class {
		return fmt.Errorf("schema: detail class %s does not match schema class %s", d.Class, s.class)
	}
	// Iterate in sorted order for deterministic first-error reporting.
	names := make([]string, 0, len(d.Fields))
	for n := range d.Fields {
		names = append(names, string(n))
	}
	sort.Strings(names)
	for _, n := range names {
		name := event.FieldName(n)
		i, ok := s.byName[name]
		if !ok {
			return fmt.Errorf("schema: class %s declares no field %s", s.class, name)
		}
		v := d.Fields[name]
		if v == "" {
			continue // blanked by enforcement, or intentionally empty
		}
		if err := s.fields[i].checkValue(v); err != nil {
			return err
		}
	}
	return nil
}
