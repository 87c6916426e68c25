// Package workload generates the synthetic social-and-health workload
// used by tests, examples and the benchmark harness: a population of
// citizens, the producer organizations of the Trentino scenario with
// their event classes, a consumer roster, standard policy sets, and
// deterministic event streams with Zipf-skewed per-person activity.
//
// The paper validated the platform "with sample data given by the data
// providers"; this package is the synthetic equivalent exercising the
// same code paths (DESIGN.md, substitution table).
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/event"
	"repro/internal/schema"
)

// Person is one citizen of the synthetic population.
type Person struct {
	ID      string
	Name    string
	Surname string
	Age     int
	Sex     string
}

// ProducerSpec describes one data source and the classes it declares.
type ProducerSpec struct {
	ID      event.ProducerID
	Name    string
	Classes []*schema.Schema
}

// ConsumerSpec describes one consumer organization.
type ConsumerSpec struct {
	Actor event.Actor
	Name  string
}

// Producers returns the producer roster of the scenario with their
// domain event classes.
func Producers() []ProducerSpec {
	return []ProducerSpec{
		{
			ID: "hospital-s-maria", Name: "Hospital S. Maria",
			Classes: []*schema.Schema{schema.BloodTest(), schema.Discharge(), schema.Psychology()},
		},
		{
			ID: "municipality-trento", Name: "Municipality of Trento",
			Classes: []*schema.Schema{schema.HomeCare(), schema.FoodDelivery(), schema.HouseCleaning()},
		},
		{
			ID: "social-services", Name: "Provincial social services",
			Classes: []*schema.Schema{schema.AutonomyTest(), schema.NursingService()},
		},
		{
			ID: "telecare-co", Name: "Telecare provider",
			Classes: []*schema.Schema{schema.Telecare()},
		},
	}
}

// Consumers returns the consumer roster of the scenario.
func Consumers() []ConsumerSpec {
	return []ConsumerSpec{
		{Actor: "family-doctor", Name: "Family doctors network"},
		{Actor: "social-welfare", Name: "Social welfare department"},
		{Actor: "social-welfare/home-care", Name: "Home care unit"},
		{Actor: "national-governance/statistics", Name: "National statistics department"},
		{Actor: "hospital-s-maria/ward", Name: "Hospital ward"},
		{Actor: "caring-coop", Name: "Private caring cooperative"},
	}
}

// Config parameterizes a Generator.
type Config struct {
	// Seed makes the stream deterministic.
	Seed int64
	// People is the population size (default 1000).
	People int
	// ZipfS skews per-person activity (default 1.2; 0 disables skew).
	ZipfS float64
	// Classes are the event classes to draw from (default: all domain
	// classes).
	Classes []*schema.Schema
}

// Generator produces a deterministic stream of events.
type Generator struct {
	rnd      *rand.Rand
	zipf     *rand.Zipf
	people   []Person
	classes  []*schema.Schema
	ownerOf  map[event.ClassID]event.ProducerID
	seq      int
	baseYear int
}

// NewGenerator builds a generator.
func NewGenerator(cfg Config) *Generator {
	if cfg.People <= 0 {
		cfg.People = 1000
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.2
	}
	if len(cfg.Classes) == 0 {
		cfg.Classes = schema.Domain()
	}
	rnd := rand.New(rand.NewSource(cfg.Seed))
	g := &Generator{
		rnd:      rnd,
		classes:  cfg.Classes,
		ownerOf:  make(map[event.ClassID]event.ProducerID),
		baseYear: 2010,
	}
	if cfg.ZipfS > 1 {
		g.zipf = rand.NewZipf(rnd, cfg.ZipfS, 1, uint64(cfg.People-1))
	}
	for _, p := range Producers() {
		for _, s := range p.Classes {
			g.ownerOf[s.Class()] = p.ID
		}
	}
	g.people = makePeople(rnd, cfg.People)
	return g
}

var (
	firstNames = []string{"Anna", "Bruno", "Carla", "Dario", "Elena", "Fabio", "Giulia", "Hugo", "Irene", "Luca", "Maria", "Nino", "Olga", "Paolo", "Rita", "Sergio", "Teresa", "Ugo", "Vera", "Walter"}
	surnames   = []string{"Rossi", "Bianchi", "Ferrari", "Russo", "Gallo", "Costa", "Fontana", "Conti", "Ricci", "Bruno", "Moretti", "Greco", "Rizzo", "Lombardi", "Colombo", "Marini"}
	words      = []string{"stable", "improving", "routine", "follow-up", "acute", "chronic", "referred", "monitored", "assisted", "observed", "scheduled", "completed"}
)

func makePeople(rnd *rand.Rand, n int) []Person {
	people := make([]Person, n)
	for i := range people {
		sex := "f"
		if rnd.Intn(2) == 0 {
			sex = "m"
		}
		people[i] = Person{
			ID:      fmt.Sprintf("PRS-%06d", i+1),
			Name:    firstNames[rnd.Intn(len(firstNames))],
			Surname: surnames[rnd.Intn(len(surnames))],
			Age:     60 + rnd.Intn(40), // elderly care population
			Sex:     sex,
		}
	}
	return people
}

// pickPerson draws a person index with the configured skew.
func (g *Generator) pickPerson() Person {
	if g.zipf != nil {
		return g.people[int(g.zipf.Uint64())]
	}
	return g.people[g.rnd.Intn(len(g.people))]
}

// Next produces the next event of the stream: a notification and its
// matching full detail message. The producer is the owner of the drawn
// class; OccurredAt advances monotonically through the simulation year.
func (g *Generator) Next() (*event.Notification, *event.Detail) {
	g.seq++
	s := g.classes[g.rnd.Intn(len(g.classes))]
	person := g.pickPerson()
	producer := g.ownerOf[s.Class()]
	if producer == "" {
		producer = "unknown-producer"
	}
	src := event.SourceID(fmt.Sprintf("%s-src-%08d", producer, g.seq))
	occurred := date(g.baseYear, g.seq)

	n := &event.Notification{
		SourceID:   src,
		Class:      s.Class(),
		PersonID:   person.ID,
		Summary:    fmt.Sprintf("%s for %s %s", s.Doc(), person.Name, person.Surname),
		OccurredAt: occurred,
		Producer:   producer,
	}
	d := event.NewDetail(s.Class(), src, producer)
	for _, f := range s.Fields() {
		d.Set(f.Name, g.value(f, person))
	}
	return n, d
}

// value synthesizes a schema-valid value for a field.
func (g *Generator) value(f schema.Field, p Person) string {
	switch f.Name {
	case "patient-id":
		return p.ID
	case "name":
		return p.Name
	case "surname":
		return p.Surname
	case "age":
		return fmt.Sprintf("%d", p.Age)
	case "sex":
		return p.Sex
	}
	switch f.Type {
	case schema.Int:
		return fmt.Sprintf("%d", g.rnd.Intn(100))
	case schema.Float:
		return fmt.Sprintf("%.1f", 5+g.rnd.Float64()*20)
	case schema.Bool:
		if g.rnd.Intn(2) == 0 {
			return "false"
		}
		return "true"
	case schema.Date:
		return date(g.baseYear, g.seq).Format("2006-01-02")
	case schema.DateTime:
		return date(g.baseYear, g.seq).Format("2006-01-02T15:04:05Z")
	case schema.Code:
		return f.Codes[g.rnd.Intn(len(f.Codes))]
	default:
		return words[g.rnd.Intn(len(words))] + " " + words[g.rnd.Intn(len(words))]
	}
}
