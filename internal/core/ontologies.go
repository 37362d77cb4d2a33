// Package core wires the App Lab stack together: the materialized workflow
// (GeoTriples → Strabon → interlinking → Sextant) and the on-the-fly
// workflow (OPeNDAP → MadIS opendap adapter → Ontop-spatial virtual
// graphs), plus the INSPIRE-compliant ontologies of the paper's Figures
// 2-3 and the case-study vocabularies. It is also the one place a serving
// stack is assembled: the commands build their source and hand it to
// Serve, ServeDAP or Query.
package core

import (
	"slices"

	"applab/internal/rdf"
)

func iri(s string) rdf.Term         { return rdf.NewIRI(s) }
func lit(s string) rdf.Term         { return rdf.NewLiteral(s) }
func t(s, p, o rdf.Term) rdf.Triple { return rdf.NewTriple(s, p, o) }

// LAIOntology returns the LAI ontology of the paper's Figure 2: the class
// lai:Observation specializes qb:Observation; lai:lai carries the
// measurement; time:hasTime and geo:hasGeometry/geo:asWKT attach the
// spatio-temporal context.
func LAIOntology() []rdf.Triple {
	obs := iri(rdf.NSLAI + "Observation")
	laiProp := iri(rdf.NSLAI + "lai")
	return []rdf.Triple{
		t(obs, iri(rdf.RDFType), iri(rdf.OWLClass)),
		t(obs, iri(rdf.RDFSSubClassOf), iri(rdf.NSQB+"Observation")),
		t(obs, iri(rdf.RDFSLabel), lit("LAI observation")),
		t(obs, iri(rdf.RDFSComment), lit("One leaf-area-index measurement of the Copernicus global land service")),
		t(laiProp, iri(rdf.RDFSLabel), lit("leaf area index")),
		t(laiProp, iri(rdf.RDFSDomain), obs),
		t(laiProp, iri(rdf.RDFSRange), iri(rdf.NSXSD+"float")),
		t(iri(rdf.NSTime+"hasTime"), iri(rdf.RDFSDomain), obs),
		t(iri(rdf.NSTime+"hasTime"), iri(rdf.RDFSRange), iri(rdf.NSXSD+"dateTime")),
		t(iri(rdf.NSGeo+"hasGeometry"), iri(rdf.RDFSDomain), obs),
		t(iri(rdf.NSGeo+"hasGeometry"), iri(rdf.RDFSRange), iri(rdf.NSSF+"Geometry")),
		t(iri(rdf.NSGeo+"asWKT"), iri(rdf.RDFSDomain), iri(rdf.NSSF+"Geometry")),
		t(iri(rdf.NSGeo+"asWKT"), iri(rdf.RDFSRange), iri(rdf.WKTLiteral)),
	}
}

// GADMOntology returns the GADM ontology of the paper's Figure 3:
// gadm:AdministrativeArea extends geo:Feature with a name and level.
func GADMOntology() []rdf.Triple {
	area := iri(rdf.NSGADM + "AdministrativeArea")
	return []rdf.Triple{
		t(area, iri(rdf.RDFType), iri(rdf.OWLClass)),
		t(area, iri(rdf.RDFSSubClassOf), iri(rdf.NSGeo+"Feature")),
		t(area, iri(rdf.RDFSLabel), lit("administrative area")),
		t(area, iri(rdf.RDFSComment), lit("An administrative division from the GADM dataset")),
		t(iri(rdf.NSGADM+"hasName"), iri(rdf.RDFSDomain), area),
		t(iri(rdf.NSGADM+"hasName"), iri(rdf.RDFSRange), iri(rdf.NSXSD+"string")),
		t(iri(rdf.NSGADM+"hasLevel"), iri(rdf.RDFSDomain), area),
		t(iri(rdf.NSGADM+"hasLevel"), iri(rdf.RDFSRange), iri(rdf.NSXSD+"integer")),
		t(iri(rdf.NSGADM+"hasGeometry"), iri(rdf.RDFSSubClassOf), iri(rdf.NSGeo+"hasGeometry")),
	}
}

// CORINEOntology returns the CORINE land cover ontology sketched in §4:
// clc:CorineArea specializes the INSPIRE land-cover unit; the property
// clc:hasCorineValue links areas to classes in the CORINE hierarchy, of
// which a representative subset is materialized (clc:greenUrbanAreas
// included, since Figure 4's discussion depends on it).
func CORINEOntology() []rdf.Triple {
	area := iri(rdf.NSCLC + "CorineArea")
	value := iri(rdf.NSCLC + "CorineValue")
	hasValue := iri(rdf.NSCLC + "hasCorineValue")
	out := []rdf.Triple{
		t(area, iri(rdf.RDFType), iri(rdf.OWLClass)),
		t(area, iri(rdf.RDFSSubClassOf), iri(rdf.NSInspire+"LandCoverUnit")),
		t(value, iri(rdf.RDFType), iri(rdf.OWLClass)),
		t(hasValue, iri(rdf.RDFSDomain), area),
		t(hasValue, iri(rdf.RDFSRange), value),
	}
	// Level-1 groups and a subset of level-3 classes.
	groups := map[string][]string{
		"ArtificialSurfaces": {"continuousUrbanFabric", "discontinuousUrbanFabric",
			"industrialOrCommercialUnits", "roadAndRailNetworks", "greenUrbanAreas",
			"sportAndLeisureFacilities"},
		"AgriculturalAreas": {"arableLand", "pastures", "vineyards", "oliveGroves"},
		"ForestAndSeminatural": {"broadLeavedForest", "coniferousForest",
			"naturalGrasslands"},
		"WaterBodies": {"waterBodies"},
	}
	for group, classes := range groups {
		g := iri(rdf.NSCLC + group)
		out = append(out,
			t(g, iri(rdf.RDFType), iri(rdf.OWLClass)),
			t(g, iri(rdf.RDFSSubClassOf), value),
		)
		for _, cls := range classes {
			c := iri(rdf.NSCLC + cls)
			out = append(out,
				t(c, iri(rdf.RDFType), iri(rdf.OWLClass)),
				t(c, iri(rdf.RDFSSubClassOf), g),
			)
		}
	}
	return out
}

// OSMOntology returns the OpenStreetMap ontology built for the case study
// (constructed "by following closely the description of OpenStreetMap data
// provided by Geofabrik").
func OSMOntology() []rdf.Triple {
	poi := iri(rdf.NSOSM + "PointOfInterest")
	out := []rdf.Triple{
		t(poi, iri(rdf.RDFType), iri(rdf.OWLClass)),
		t(poi, iri(rdf.RDFSSubClassOf), iri(rdf.NSGeo+"Feature")),
		t(iri(rdf.NSOSM+"poiType"), iri(rdf.RDFSDomain), poi),
		t(iri(rdf.NSOSM+"hasName"), iri(rdf.RDFSDomain), poi),
		t(iri(rdf.NSOSM+"hasName"), iri(rdf.RDFSRange), iri(rdf.NSXSD+"string")),
	}
	for _, cls := range []string{"park", "forest", "playground", "cemetery", "stadium", "garden"} {
		c := iri(rdf.NSOSM + cls)
		out = append(out,
			t(c, iri(rdf.RDFType), iri(rdf.OWLClass)),
			t(c, iri(rdf.RDFSSubClassOf), poi),
		)
	}
	return out
}

// UrbanAtlasOntology returns the Urban Atlas ontology used by the case
// study.
func UrbanAtlasOntology() []rdf.Triple {
	block := iri(rdf.NSUA + "UrbanBlock")
	out := []rdf.Triple{
		t(block, iri(rdf.RDFType), iri(rdf.OWLClass)),
		t(block, iri(rdf.RDFSSubClassOf), iri(rdf.NSInspire+"LandUseUnit")),
		t(iri(rdf.NSUA+"hasClass"), iri(rdf.RDFSDomain), block),
	}
	for _, cls := range []string{"continuousUrbanFabric", "discontinuousVeryLowDensityUrbanFabric",
		"industrialCommercialPublicMilitaryAndPrivateUnits", "greenUrbanAreas",
		"sportsAndLeisureFacilities", "forests", "orchards", "waterBodies"} {
		c := iri(rdf.NSUA + cls)
		out = append(out, t(c, iri(rdf.RDFType), iri(rdf.OWLClass)))
	}
	return out
}

// AllOntologies returns every ontology of the case study merged.
func AllOntologies() []rdf.Triple {
	return slices.Concat(LAIOntology(), GADMOntology(), CORINEOntology(), OSMOntology(), UrbanAtlasOntology())
}
